"""``G_rel`` is built by the yield method's one pipeline step."""

from repro.obs import trace as obs_trace
from repro.reliability import ExponentialFieldModel, ReliabilityAnalyzer
from repro.soc import ms_problem


def test_a_traced_mission_sweep_shows_the_compile_spans_of_both_builds():
    problem = ms_problem(2, mean_defects=2.0)
    field = ExponentialFieldModel({}, default_rate=0.01)
    tracer = obs_trace.start()
    try:
        ReliabilityAnalyzer().mission_sweep(problem, field, [0.0, 1.0], max_defects=2)
    finally:
        obs_trace.stop()
    spans = tracer.spans()
    # one build of G for the yield and one of G_rel, each in the same spans
    for name in ("compile.ordering", "compile.robdd", "compile.romdd"):
        assert [s["name"] for s in spans].count(name) == 2, name
    robdd = [s["args"] for s in spans if s["name"] == "compile.robdd"]
    assert [args["truncation"] for args in robdd] == [2, 2]
    # G_rel also reads one field-failure bit per component: a larger ROBDD
    assert robdd[0]["nodes"] < robdd[1]["nodes"]
