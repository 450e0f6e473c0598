import types

import tridensity


def test_exported_names_resolve_and_exclude_modules():
    for name in tridensity.__all__:
        assert not isinstance(getattr(tridensity, name), types.ModuleType), name
    assert len(set(tridensity.__all__)) == len(tridensity.__all__)
    for gone in ("GridIndex", "FoldFitFailed", "eval_density"):
        assert gone not in tridensity.__all__
        assert not hasattr(tridensity, gone)
