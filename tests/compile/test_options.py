"""CompileOptions resolution and validation (repro.compile.options)."""

from dataclasses import fields

import pytest

from repro.compile import CompileOptions, DEFAULT_OPTIONS, resolve_options


def test_off_spellings_resolve_to_none():
    assert resolve_options(None) is None
    assert resolve_options(False) is None


def test_true_resolves_to_the_shared_defaults():
    assert resolve_options(True) is DEFAULT_OPTIONS
    assert not DEFAULT_OPTIONS.auto_alpha


def test_options_are_only_the_sizing_inputs():
    assert [f.name for f in fields(CompileOptions)] == [
        "auto_alpha", "volume", "granularity", "beta"]


def test_options_object_passes_through():
    opts = CompileOptions(granularity=4096.0)
    assert resolve_options(opts) is opts


def test_dict_builds_options():
    opts = resolve_options({"auto_alpha": True, "granularity": 4096.0})
    assert opts == CompileOptions(auto_alpha=True, granularity=4096.0)


def test_bad_dict_key_rejected():
    for spec in ({"fuze": True}, {"batch": False}):
        with pytest.raises(ValueError, match="bad compile options"):
            resolve_options(spec)


def test_bad_type_rejected():
    with pytest.raises(ValueError, match="compile must be"):
        resolve_options("yes please")


@pytest.mark.parametrize("field", ["volume", "granularity"])
def test_model_inputs_must_be_positive(field):
    with pytest.raises(ValueError, match="must be positive"):
        CompileOptions(**{field: 0})
    with pytest.raises(ValueError, match="must be positive"):
        CompileOptions(**{field: -1.5})


def test_options_are_hashable_memo_keys():
    # the executable memo keys on (id(graph), options)
    a = CompileOptions()
    b = CompileOptions()
    assert hash(a) == hash(b) and a == b
    assert CompileOptions(auto_alpha=True) != a
