"""Tests of the benchmark's own code: input generation, output checks, tracing.

    python3 -m pytest -q bench
"""

import filecmp
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = run.import_library()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    workloads.generate(workload, 7, str(tmp_path / "a"))
    workloads.generate(workload, 7, str(tmp_path / "b"))
    workloads.generate(workload, 8, str(tmp_path / "c"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch == [] and errors == []
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", names, shallow=False)
    assert differ


def test_attain_instances_straddle_the_threshold(tmp_path):
    insts = workloads.generate("attain", 3, str(tmp_path))
    block = insts[:6]
    assert sum(i["delta"] > 1.0 for i in block) == 3
    assert {i["loss_kind"] for i in block} == set(workloads.LOSS_KINDS)
    # every loss kind is drawn on both sides of the threshold
    for kind in workloads.LOSS_KINDS:
        deltas = [i["delta"] for i in block if i["loss_kind"] == kind]
        assert len(deltas) == 2 and deltas[0] < 1.0 < deltas[1]
    lo, hi = workloads.DELTA_ABOVE
    assert all(lo <= i["delta"] <= hi for i in insts if i["delta"] > 1.0)
    # kernel widths, which set most of an op's cost, do not depend on the seed
    other = workloads.generate("attain", 4, str(tmp_path / "other"))
    assert [i["sigma"] for i in insts] == [i["sigma"] for i in other]
    assert sorted(i["sigma"] for i in block) == sorted(i["sigma"] for i in insts[6:12])


def test_price_requests_spread_kernel_types_evenly(tmp_path):
    insts = workloads.generate("price", 5, str(tmp_path))
    kinds = [i["kernel"] for i in insts]
    assert sorted(set(kinds)) == sorted(workloads.PRICE_KERNELS)
    assert len({kinds.count(k) for k in workloads.PRICE_KERNELS}) == 1
    for kind in workloads.PRICE_KERNELS:
        pairs = set()
        for inst in insts:
            if inst["kernel"] == kind:
                cfg = LIB.cli.load_config(str(tmp_path / inst["config"]))
                pairs.add((cfg["distortion.plus.kind"], cfg["distortion.minus.kind"]))
        assert len(pairs) == 4, (kind, pairs)


# -- optimize checks ---------------------------------------------------------


def _optimize_case(tmp_path, q):
    insts = workloads.generate("optimize", 1, str(tmp_path))
    inst = insts[0]
    cfg = LIB.cli.load_config(str(tmp_path / inst["config"]))
    kernel = LIB.cli.build_kernel(cfg)
    prefs = LIB.cli.build_preferences(cfg)
    q = np.asarray(q, dtype=float)
    law = LIB.choquet.DiscreteLaw(q, np.full(q.size, 1.0 / q.size))
    parsed = {"q": q, "value": LIB.choquet.cpt_value(law, *prefs).total,
              "cost": LIB.market.budget(kernel, law), "converged": False}
    return inst, parsed, kernel, prefs


def test_optimize_check_rejects_cost_above_budget(tmp_path):
    insts = workloads.generate("optimize", 1, str(tmp_path))
    x0 = insts[0]["x0"]
    inst, parsed, kernel, prefs = _optimize_case(tmp_path, np.full(8, x0 + 0.5))
    problems = workloads.verify_optimize(LIB, inst, parsed, kernel, prefs, run.new_quality())
    assert any("exceeds x0" in p for p in problems)


def test_optimize_check_rejects_decreasing_profile(tmp_path):
    inst, parsed, kernel, prefs = _optimize_case(tmp_path, np.full(8, 0.1))
    parsed["q"] = np.linspace(0.5, -0.5, 8)
    problems = workloads.verify_optimize(LIB, inst, parsed, kernel, prefs, run.new_quality())
    assert any("decreases" in p for p in problems)


def test_optimize_check_rejects_misreported_value_and_cost(tmp_path):
    inst, parsed, kernel, prefs = _optimize_case(tmp_path, np.linspace(-0.5, 0.5, 16))
    assert workloads.verify_optimize(LIB, inst, parsed, kernel, prefs, run.new_quality()) == []
    bad = dict(parsed, value=parsed["value"] + 1e-6, cost=parsed["cost"] - 1e-6)
    problems = workloads.verify_optimize(LIB, inst, bad, kernel, prefs, run.new_quality())
    assert any("cpt_value" in p for p in problems)
    assert any("market.budget" in p for p in problems)


def test_parse_optimize_reads_cli_output(tmp_path):
    (tmp_path / "portfolio.csv").write_text("# header\np,q\n0.25,-1.0\n0.75,2.5\n")
    parsed = workloads.parse_optimize(
        str(tmp_path), "value = 0.5, cost = 0.99, converged = False\n")
    assert parsed["value"] == 0.5 and parsed["cost"] == 0.99 and not parsed["converged"]
    assert parsed["q"].tolist() == [-1.0, 2.5]


# -- price checks ------------------------------------------------------------


def _price_result(tmp_path):
    insts = workloads.generate("price", 2, str(tmp_path))
    result = workloads.run_price(LIB, str(tmp_path), insts[0], str(tmp_path))
    assert workloads.verify_price(LIB, result, run.new_quality()) == []
    return result


def test_price_check_rejects_value_off_the_oracle(tmp_path):
    result = _price_result(tmp_path)
    v = result["value"]
    result["value"] = LIB.choquet.CPTValue(v_plus=v.v_plus * (1 + 1e-6) + 1e-6,
                                           v_minus=v.v_minus)
    problems = workloads.verify_price(LIB, result, run.new_quality())
    assert any("gain side" in p for p in problems)


def test_price_check_rejects_budget_outside_bracket(tmp_path):
    result = _price_result(tmp_path)
    result["cost"] = result["bracket"][1] + 1.0
    problems = workloads.verify_price(LIB, result, run.new_quality())
    assert any("outside the bracket" in p for p in problems)


def test_price_check_rejects_budget_at_the_comonotone_end(tmp_path):
    result = _price_result(tmp_path)
    lo, hi = result["bracket"]
    assert hi - lo > 1e-6
    result["cost"] = hi
    problems = workloads.verify_price(LIB, result, run.new_quality())
    assert any("lower end" in p for p in problems)


# -- attain checks -----------------------------------------------------------


def _attain_case(tmp_path, above):
    work = tmp_path / "work"
    insts = workloads.generate("attain", 4, str(work))
    inst = next(i for i in insts if (i["delta"] > 1.0) == above and i["loss_kind"] == "power")
    out = tmp_path / "out"
    out.mkdir()
    report = {"kernel_assumptions": {"moments": [
        {"order": 1.0, "E[rho^p]": 1.0,
         "E[rho^-p]": workloads.lognormal_moment(inst["sigma"], -1.0)}]},
        "delta_threshold": {"holds": "no" if above else "yes"}}
    (out / "check_report.json").write_text(json.dumps(report))
    result = {"code": 0, "stdout": ""}
    if above:
        code, text = workloads._run_cli(LIB.cli, ["demo-nonattain", "--config",
                                                  str(work / inst["config"]), "--out", str(out)])
        result.update(demo_code=code, demo_stdout=text)
    return str(work), inst, result, out


def test_attain_check_accepts_correct_outputs(tmp_path):
    for above in (False, True):
        work, inst, result, out = _attain_case(tmp_path / str(above), above)
        quality = run.new_quality()
        assert workloads.verify_attain(LIB, work, inst, result, str(out), quality) == []
        assert quality["moment_err"] == [0.0, 0.0]


def test_attain_check_rejects_attainable_verdict_above_one(tmp_path):
    work, inst, result, out = _attain_case(tmp_path, True)
    report = json.loads((out / "check_report.json").read_text())
    report["delta_threshold"]["holds"] = "inconclusive"
    (out / "check_report.json").write_text(json.dumps(report))
    problems = workloads.verify_attain(LIB, work, inst, result, str(out), run.new_quality())
    assert any("delta_threshold.holds" in p for p in problems)


def test_attain_check_rejects_missing_demonstration(tmp_path):
    work, inst, result, out = _attain_case(tmp_path, True)
    result["demo_stdout"] = result["demo_stdout"].replace("non-attainability demonstrated", "")
    problems = workloads.verify_attain(LIB, work, inst, result, str(out), run.new_quality())
    assert any("did not report" in p for p in problems)


def test_attain_check_rejects_misreported_construction(tmp_path):
    work, inst, result, out = _attain_case(tmp_path, True)
    path = out / "nonattainability.csv"
    lines = path.read_text().splitlines()
    header = lines.index("n,a_n,b_n,V_plus,V_minus,V,gap")
    for column, message in ((2, "q_rho(1 - a_n)"), (5, "the element is worth")):
        rows = [ln.split(",") for ln in lines[header + 1:]]
        rows[-1][column] = repr(float(rows[-1][column]) * 1.01)
        path.write_text("\n".join(lines[:header + 1] + [",".join(r) for r in rows]) + "\n")
        problems = workloads.verify_attain(LIB, work, inst, result, str(out), run.new_quality())
        assert any(message in p for p in problems), problems


def test_nonzero_exit_code_is_a_failure(tmp_path):
    for workload in workloads.WORKLOADS:
        assert workloads.verify(workload, LIB, str(tmp_path), {}, {"code": 3}, "", run.new_quality())


# -- tracing -----------------------------------------------------------------


def _tree():
    """root[0,10] > (a[1,5] > g[2,4]), b[6,7]: built with a scripted clock."""
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    root = tr.open(tr.name_code("root"))
    a = tr.open(tr.name_code("a"))
    g = tr.open(tr.name_code("g"))
    tr.close(g)
    tr.close(a)
    b = tr.open(tr.name_code("b"))
    tr.close(b)
    tr.close(root)
    return tr


def test_self_time_on_hand_built_tree():
    tr = _tree()
    assert tr.self_times().tolist() == [5.0, 2.0, 2.0, 1.0]
    assert tr.self_time(["root", "b"]) == 6.0


def test_busy_counts_nested_spans_of_a_group_once():
    tr = _tree()
    assert tr.busy(["a", "g"]) == (2, 4.0)
    assert tr.busy(["g", "b"]) == (2, 3.0)
    assert tr.busy(["missing"]) == (0, 0.0)


def test_installation_restores_the_library():
    original_main = LIB.cli.main
    original_value = LIB.optimizer._Grid.value
    tr = tracing.Tracer()
    inst = tracing.Installation(tr, LIB)
    assert LIB.cli.main is not original_main
    inst.remove()
    assert LIB.cli.main is original_main
    assert LIB.optimizer._Grid.value is original_value
    assert "moment" not in vars(LIB.market.LognormalKernel)


def test_installation_wraps_names_bound_in_other_modules():
    original_budget = LIB.market.budget
    inst = tracing.Installation(tracing.Tracer(), LIB)
    assert LIB.constructions.budget is LIB.market.budget is not original_budget
    assert LIB.cli.cpt_value is LIB.choquet.cpt_value
    assert "cptq.attainability.choquet_positive" in inst.aliases
    inst.remove()
    assert LIB.constructions.budget is LIB.market.budget is original_budget


def test_silent_predicted_layer_fails_loudly():
    for workload, names in tracing.PREDICTED_NONZERO.items():
        metrics = {name: 1.0 for name in names}
        tracing.check_predictions(workload, metrics)
        metrics[names[0]] = 0.0
        with pytest.raises(tracing.TraceError, match=names[0]):
            tracing.check_predictions(workload, metrics)


def test_missing_wrapped_name_fails_loudly():
    quad = SimpleNamespace(**{k: v for k, v in vars(LIB.quad).items() if k != "cell_midpoints"})
    lib = SimpleNamespace(**dict(vars(LIB), quad=quad))
    original_main = LIB.cli.main
    with pytest.raises(tracing.TraceError, match="cell_midpoints"):
        tracing.Installation(tracing.Tracer(), lib)
    assert LIB.cli.main is original_main


def test_environment_drops_cptq_overrides_and_pins_blas():
    env = {"CPTQ_KERNEL__SIGMA": "0.3", "HOME": "h", "OMP_NUM_THREADS": "8"}
    run.clean_environment(env)
    assert "CPTQ_KERNEL__SIGMA" not in env and env["HOME"] == "h"
    assert all(env[name] == "1" for name in run.BLAS_THREAD_VARS)


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    times = [float(i) for i in range(1, 31)]
    assert run.tail(times) == (20.0, 100.0 * 20 / 30)
    assert run.tail(times[:12]) == (6.5, 50.0)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
