import ast
import re
from pathlib import Path

import beamosc


def test_star_import_gives_every_public_name():
    # import beamosc alone does not read __all__: a stale entry fails here.
    namespace = {}
    exec("from beamosc import *", namespace)
    assert len(set(beamosc.__all__)) == len(beamosc.__all__)
    for name in beamosc.__all__:
        assert namespace[name] is getattr(beamosc, name)


def test_each_module_imports_only_modules_before_it_in_the_pipeline():
    # Every `from .x import`, a function-level one too, names a shared helper
    # (_num, errors) or a module that the package docstring lists before the
    # importer. The package itself comes after every module it gathers.
    listing = beamosc.__doc__.split("Modules, in pipeline order:")[1]
    order = re.findall(r"^  (\w+) ", listing, re.MULTILINE)
    package = Path(beamosc.__file__).parent
    assert set(order) | {"_num", "errors", "__init__"} == {p.stem for p in package.glob("*.py")}
    rank = {name: i for i, name in enumerate(order + ["__init__"])}
    backward = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # `from . import __version__` reads the package, not a module.
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                if node.module in ("_num", "errors"):
                    continue
                if rank.get(path.stem, -1) <= rank[node.module]:
                    backward.append(f"{path.stem} -> {node.module}")
    assert backward == []
