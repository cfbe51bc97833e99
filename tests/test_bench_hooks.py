"""The benchmark's layer trace (`perfbench/layers.py`) wraps lrcheck's
public calls by looking their names up in module and class dicts.  Install
and uninstall it here, so that renaming a wrapped name fails the tests
rather than a traced benchmark run."""

import importlib.util
import os
import types

import lrcheck.cli
import lrcheck.constraints
import lrcheck.harness
import lrcheck.infer
import lrcheck.interp
import lrcheck.oracle
import lrcheck.parser
import lrcheck.syntax
import lrcheck.typeck

LAYERS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")
MODULES = ("cli", "constraints", "harness", "infer", "interp", "oracle", "parser",
           "syntax", "typeck")


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_layer_trace_installs_records_and_uninstalls(capsys):
    lr = types.SimpleNamespace(**{m: getattr(lrcheck, m) for m in MODULES})
    owners = [getattr(lr, m) for m in MODULES]
    owners += [lr.typeck.Checker, lr.oracle.Oracle]
    before = [dict(vars(owner)) for owner in owners]

    tracer = _tracer_class()(lr)
    tracer.install()
    try:
        assert lr.cli.main(["check", "corpus/accept/decr.lr"]) == 0
        assert lr.harness.soundness_sweep(range(2), budget=6).ok
    finally:
        tracer.uninstall()

    assert [dict(vars(owner)) for owner in owners] == before
    layers = {span[0] for span in tracer.spans}
    assert {"cli", "parser", "check_program", "typeck", "constraints", "infer",
            "oracle", "interp", "harness.conform", "harness.generate"} <= layers
    counts = tracer.counts()
    assert counts["infer.solves"] >= 3 and counts["constraints.clauses"] >= 3
    assert counts["interp.steps"] > 0 and counts["oracle.goals"] > 0
