import mtpso


def test_every_export_is_defined_once():
    # a name deleted from the package must also leave __all__
    names = mtpso.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mtpso, n)] == []
