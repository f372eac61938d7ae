"""Compiled execution as a study dimension: machine-spec sub-key,
cache keys, and the bit-identity guarantee inside the runner."""

import pytest

from repro.study import StudyError
from repro.study.cache import job_key
from repro.study.registry import (
    build_machine,
    get_app,
    validate_machine_spec,
)
from repro.study.runner import execute_job


def _job(compile=None, nprocs=8):
    machine = {"preset": "quiet"}
    if compile is not None:
        machine["compile"] = compile
    return {
        "study": "t", "series": "s", "x": nprocs,
        "app": "mapreduce.decoupled", "nprocs": nprocs,
        "params": {"alpha": 0.25, "bytes_per_rank": 200_000,
                   "nchunks": 2},
        "args": [], "machine": machine, "extract": "max_elapsed",
        "meta": {},
    }


def test_cache_key_incorporates_compile_spec():
    assert job_key(_job()) != job_key(_job(compile=True))
    assert job_key(_job(compile=True)) != \
        job_key(_job(compile={"granularity": 4096.0}))
    renamed = dict(_job(compile=True), series="renamed")
    assert job_key(renamed) == job_key(_job(compile=True))


def test_machine_spec_validates_compile_options():
    app = get_app("mapreduce.decoupled")
    validate_machine_spec({"preset": "quiet", "compile": True}, app)
    validate_machine_spec(
        {"preset": "quiet", "compile": {"auto_alpha": True}}, app)
    with pytest.raises(StudyError, match="machine spec compile"):
        validate_machine_spec(
            {"preset": "quiet", "compile": {"fuze": True}}, app)


def test_build_machine_treats_compile_as_side_channel():
    from repro.study.registry import build_config
    app = get_app("mapreduce.decoupled")
    cfg = build_config(app, 8, _job()["params"])
    machine = build_machine({"preset": "quiet", "compile": True}, app, cfg)
    # the sub-key configures the launcher, not the MachineConfig
    assert not hasattr(machine, "compile")


def test_execute_job_compiled_is_bit_identical():
    plain = execute_job(_job())
    compiled = execute_job(_job(compile=True))
    assert compiled["value"] == plain["value"]
    assert compiled["sim"] == plain["sim"]
