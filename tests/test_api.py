"""Package surface: every exported name resolves."""

import mteq


def test_all_names_resolve():
    missing = [name for name in mteq.__all__ if not hasattr(mteq, name)]
    assert not missing
    assert len(set(mteq.__all__)) == len(mteq.__all__)
