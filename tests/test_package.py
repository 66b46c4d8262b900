import lkbrep


def test_every_exported_name_resolves():
    missing = [name for name in lkbrep.__all__ if not hasattr(lkbrep, name)]
    assert missing == []
    assert len(set(lkbrep.__all__)) == len(lkbrep.__all__)
