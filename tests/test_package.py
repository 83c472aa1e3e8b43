import sensconn


def test_every_exported_name_resolves():
    missing = [name for name in sensconn.__all__ if not hasattr(sensconn, name)]
    assert missing == []
