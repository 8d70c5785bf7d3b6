import beamosc


def test_star_import_gives_every_public_name():
    # import beamosc alone does not read __all__: a stale entry fails here.
    namespace = {}
    exec("from beamosc import *", namespace)
    assert len(set(beamosc.__all__)) == len(beamosc.__all__)
    for name in beamosc.__all__:
        assert namespace[name] is getattr(beamosc, name)
