"""Seeded inputs, operations and output checks of the three workloads.

Each workload writes its instances into a directory (config files and CSVs
plus an ``instances.json`` manifest read only by the benchmark) and runs one
operation per instance through the library's public entry points.  The
manifest keeps the generating parameters so that checks can compare the
program's outputs with closed forms the program never sees.

Instances are stratified: consecutive blocks cycle through every stratum
(loss-utility kind, side of the delta threshold, kernel type, size decade),
and the seed only jitters values inside a stratum (kernel widths, which
set most of an attain op's cost, not at all).  Any prefix of the
instance list therefore has nearly the same composition, which keeps the
median op time of a time-limited run comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from statistics import NormalDist

import numpy as np

WORKLOADS = ("attain", "optimize", "price")

LOSS_KINDS = ("power", "logarithmic", "log_power")
DELTA_BELOW = (0.3, 0.9)
# delta > 1 starts clear of the region where the library's non-attainability
# construction fails (demo-nonattain exits 3 up to delta ~ 1.49 for
# logarithmic loss, ~ 1.21 for log-power and ~ 1.01 for power loss), so
# that no op of the workload fails; see README.md, "Workloads".
DELTA_ABOVE = (1.55, 2.0)
PRICE_KERNELS = ("table", "discrete", "lognormal")
SIZE_STRATA = 8
# pool sizes: attain and optimize hold more instances than a run of the
# default length completes; a price run cycles over its pool several times
POOL = {"attain": 60, "optimize": 60,
        "price": len(PRICE_KERNELS) * SIZE_STRATA * SIZE_STRATA}

REL_TOL = 1e-9
COST_SLACK = 1e-6
CONSTRUCTION_COST_TOL = 1e-6


# ---------------------------------------------------------------------------
# generation


# order of the six kernel-width strata in the first block, alternating
# narrow and wide; later blocks rotate it (see _strata)
STRATA_ORDER = (0, 5, 2, 3, 4, 1)


def _strata(block_index):
    """The midpoints of six equal strata of (0, 1) in a fixed order, rotated
    by one place per block.

    The kernel width sets most of an attain op's cost, so it does not depend
    on the seed: a run that completes n ops meets the same widths whatever
    the seed.  The rotation pairs every width with every position, and so
    with every loss kind and side of the threshold, over six blocks.
    """
    k = block_index % len(STRATA_ORDER)
    order = STRATA_ORDER[k:] + STRATA_ORDER[:k]
    return [(j + 0.5) / len(order) for j in order]


def _lerp(lo, hi, u):
    return lo + (hi - lo) * float(u)


def _log_lerp(lo, hi, u):
    return float(math.exp(_lerp(math.log(lo), math.log(hi), u)))


def _cfg_text(pairs, title):
    lines = [f"# {title}"] + [f"{k} = {v}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _attain_instance(i, rng, u_sigma):
    kind = LOSS_KINDS[(i // 2) % 3]
    above = i % 2 == 1
    sigma = round(_lerp(0.15, 0.6, u_sigma), 6)
    pairs = [
        ("kernel.model", "lognormal"),
        ("kernel.sigma", repr(sigma)),
        ("utility.plus.kind", "exponential"),
        ("utility.plus.alpha", repr(round(_lerp(2.0, 4.0, rng.random()), 6))),
        ("utility.minus.kind", kind),
    ]
    if kind == "power":
        pairs.append(("utility.minus.alpha", repr(round(_lerp(1.2, 2.5, rng.random()), 6))))
    elif kind == "log_power":
        pairs.append(("utility.minus.alpha", repr(round(_lerp(0.8, 1.5, rng.random()), 6))))
        pairs.append(("utility.minus.shape", repr(round(_lerp(0.5, 0.8, rng.random()), 6))))
    delta = round(_lerp(*(DELTA_ABOVE if above else DELTA_BELOW), rng.random()), 6)
    pairs += [
        ("distortion.plus.kind", "identity"),
        ("distortion.minus.kind", "associated"),
        ("distortion.minus.delta", repr(delta)),
        ("x0", "1.0"),
    ]
    return pairs, {"sigma": sigma, "delta": delta, "loss_kind": kind}


def _optimize_instance(i, rng, u_sigma):
    # one instance in four sits above the threshold, where no optimum exists
    above = i % 4 == 3
    delta = round(_lerp(1.1, 1.8, rng.random()) if above else _lerp(0.3, 0.9, rng.random()), 6)
    x0 = round(_lerp(0.5, 2.0, rng.random()), 6)
    pairs = [
        ("kernel.model", "lognormal"),
        ("kernel.sigma", repr(round(_lerp(0.1, 0.5, u_sigma), 6))),
        ("utility.plus.kind", "exponential"),
        ("utility.plus.alpha", repr(round(_lerp(0.5, 2.0, rng.random()), 6))),
        ("utility.minus.kind", "power"),
        ("utility.minus.alpha", repr(round(_lerp(1.5, 3.0, rng.random()), 6))),
        ("distortion.plus.kind", "identity"),
        ("distortion.minus.kind", "associated"),
        ("distortion.minus.delta", repr(delta)),
        ("x0", repr(x0)),
        ("optimize.n", "256"),
        ("optimize.n_starts", "6"),
        ("optimize.max_iter", "4000"),
        ("optimize.delta", repr(delta)),
        ("optimize.eta", "1.2"),
    ]
    return pairs, {"delta": delta, "x0": x0, "cli_seed": int(rng.integers(0, 2**31))}


def _price_preferences(k, rng):
    """Preferences of request stratum ``k``: gain utility, loss utility and
    the two distortion kinds each cycle with their own period."""
    gain = k % 3
    if gain == 0:
        pairs = [("utility.plus.kind", "power"),
                 ("utility.plus.alpha", repr(round(_lerp(0.3, 0.9, rng.random()), 6)))]
    elif gain == 1:
        pairs = [("utility.plus.kind", "exponential"),
                 ("utility.plus.alpha", repr(round(_lerp(0.2, 2.0, rng.random()), 6)))]
    else:
        pairs = [("utility.plus.kind", "logarithmic")]
    loss = (k // 3) % 3
    if loss == 0:
        pairs += [("utility.minus.kind", "power"),
                  ("utility.minus.alpha", repr(round(_lerp(1.0, 2.5, rng.random()), 6)))]
    elif loss == 1:
        pairs += [("utility.minus.kind", "logarithmic")]
    else:
        pairs += [("utility.minus.kind", "log_power"),
                  ("utility.minus.alpha", repr(round(_lerp(0.5, 1.5, rng.random()), 6))),
                  ("utility.minus.shape", repr(round(_lerp(0.3, 0.8, rng.random()), 6)))]
    if (k // 9) % 2:
        pairs += [("distortion.plus.kind", "prelec"),
                  ("distortion.plus.beta", repr(round(_lerp(0.7, 1.3, rng.random()), 6))),
                  ("distortion.plus.shape", repr(round(_lerp(0.4, 0.9, rng.random()), 6)))]
    else:
        pairs += [("distortion.plus.kind", "power"),
                  ("distortion.plus.beta", repr(round(_lerp(0.5, 1.0, rng.random()), 6)))]
    if (k // 18) % 2:
        pairs += [("distortion.minus.kind", "associated"),
                  ("distortion.minus.delta", repr(round(_lerp(0.3, 1.5, rng.random()), 6)))]
    else:
        pairs += [("distortion.minus.kind", "prelec"),
                  ("distortion.minus.beta", repr(round(_lerp(0.7, 1.3, rng.random()), 6))),
                  ("distortion.minus.shape", repr(round(_lerp(0.4, 0.9, rng.random()), 6)))]
    return pairs


def _law_csv(rng, n_atoms):
    values = rng.normal(_lerp(-0.5, 1.0, rng.random()), _lerp(0.5, 5.0, rng.random()), n_atoms)
    weights = rng.random(n_atoms) + 0.05
    probs = weights / weights.sum()
    rows = ["value,prob"] + [f"{v!r},{p!r}" for v, p in zip(values.tolist(), probs.tolist())]
    return "\n".join(rows) + "\n"


def _table_kernel_csv(rng, n_knots):
    """Strictly increasing piecewise-linear quantile table with unit mean."""
    inner = np.sort(rng.random(n_knots - 2))
    ps = np.concatenate(([0.0], inner, [1.0]))
    if np.any(np.diff(ps) <= 0.0):
        ps = np.linspace(0.0, 1.0, n_knots)
    qs = np.cumsum(rng.exponential(1.0, n_knots) + 0.01) * _lerp(0.2, 2.0, rng.random())
    mean = float(np.sum(0.5 * (qs[1:] + qs[:-1]) * np.diff(ps)))
    qs = qs / mean
    rows = ["p,q"] + [f"{p!r},{q!r}" for p, q in zip(ps.tolist(), qs.tolist())]
    return "\n".join(rows) + "\n"


def _discrete_kernel_csv(rng, n_states):
    values = np.sort(np.exp(rng.normal(0.0, _lerp(0.1, 0.8, rng.random()), n_states)))
    weights = rng.random(n_states) + 0.05
    probs = weights / weights.sum()
    values = values / float(np.dot(values, probs))
    rows = ["value,prob"] + [f"{v!r},{p!r}" for v, p in zip(values.tolist(), probs.tolist())]
    return "\n".join(rows) + "\n"


def _price_instance(i, rng, u_law, u_kernel, out_dir):
    kernel_kind = PRICE_KERNELS[i % len(PRICE_KERNELS)]
    k = i // len(PRICE_KERNELS)
    n_atoms = int(round(_log_lerp(10, 3000, u_law)))
    law_name = f"law{i:04d}.csv"
    _write(os.path.join(out_dir, law_name), _law_csv(rng, n_atoms))
    pairs = [("law.path", law_name)]
    meta = {"n_atoms": n_atoms, "kernel": kernel_kind}
    if kernel_kind == "lognormal":
        pairs += [("kernel.model", "lognormal"),
                  ("kernel.sigma", repr(round(_lerp(0.1, 0.8, u_kernel), 6)))]
    elif kernel_kind == "table":
        n_knots = int(round(_log_lerp(10, 3000, u_kernel)))
        name = f"kernel{i:04d}.csv"
        _write(os.path.join(out_dir, name), _table_kernel_csv(rng, n_knots))
        pairs += [("kernel.model", "custom_quantile"), ("kernel.path", name)]
        meta["n_knots"] = n_knots
    else:
        n_states = int(round(_log_lerp(10, 100, u_kernel)))
        name = f"kernel{i:04d}.csv"
        _write(os.path.join(out_dir, name), _discrete_kernel_csv(rng, n_states))
        pairs += [("kernel.model", "discrete"), ("kernel.path", name)]
        meta["n_states"] = n_states
    pairs += _price_preferences(k, rng)
    return pairs, meta


def generate(workload, seed, out_dir):
    """Write the seeded instances of ``workload`` into ``out_dir``.

    The same (workload, seed) always writes byte-identical files.  No
    instance is ever dropped or redrawn.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    instances = []
    u_sigma = None
    for i in range(POOL[workload]):
        if i % 6 == 0:
            u_sigma = _strata(i // 6)
        if workload == "attain":
            pairs, meta = _attain_instance(i, rng, u_sigma[i % 6])
        elif workload == "optimize":
            pairs, meta = _optimize_instance(i, rng, u_sigma[i % 6])
        else:
            # full factorial over kernel type x law-size stratum x kernel-size
            # stratum; every 24 requests cover each law-size stratum once per type
            j = i // len(PRICE_KERNELS)
            u_law = (j % SIZE_STRATA + rng.random()) / SIZE_STRATA
            u_kernel = ((j + j // SIZE_STRATA) % SIZE_STRATA + rng.random()) / SIZE_STRATA
            pairs, meta = _price_instance(i, rng, u_law, u_kernel, out_dir)
        name = f"{workload}{i:04d}.cfg"
        _write(os.path.join(out_dir, name), _cfg_text(pairs, f"{workload} instance {i}, seed {seed}"))
        instances.append(dict(meta, config=name))
    _write(os.path.join(out_dir, "instances.json"),
           json.dumps({"workload": workload, "seed": seed, "instances": instances},
                      indent=1, sort_keys=True) + "\n")
    return instances


# ---------------------------------------------------------------------------
# operations: ``run_*`` is the timed part, ``verify_*`` the untimed check


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_attain(lib, work, inst, out):
    cfg = os.path.join(work, inst["config"])
    code, text = _run_cli(lib.cli, ["check", "--config", cfg, "--out", out])
    result = {"code": code, "stdout": text}
    if code == 0 and inst["delta"] > 1.0:
        code2, text2 = _run_cli(lib.cli, ["demo-nonattain", "--config", cfg, "--out", out])
        result.update(demo_code=code2, demo_stdout=text2)
    return result


def run_optimize(lib, work, inst, out):
    cfg = os.path.join(work, inst["config"])
    code, text = _run_cli(lib.cli, ["optimize", "--config", cfg, "--out", out,
                                    "--seed", str(inst["cli_seed"])])
    return {"code": code, "stdout": text}


def run_price(lib, work, inst, out):
    cfg = lib.cli.load_config(os.path.join(work, inst["config"]))
    prefs = lib.cli.build_preferences(cfg)
    law = lib.choquet.DiscreteLaw.from_csv(os.path.join(work, cfg["law.path"]))
    kernel = load_price_kernel(lib, work, cfg)
    value = lib.choquet.cpt_value(law, *prefs)
    cost = lib.market.budget(kernel, law)
    bracket = lib.market.hardy_littlewood_check(kernel, law)
    return {"code": 0, "law": law, "prefs": prefs, "value": value, "cost": cost,
            "bracket": bracket}


RUNNERS = {"attain": run_attain, "optimize": run_optimize, "price": run_price}


def load_price_kernel(lib, work, cfg):
    if cfg["kernel.model"] == "discrete":
        states = lib.choquet.DiscreteLaw.from_csv(os.path.join(work, cfg["kernel.path"]))
        return lib.market.DiscreteKernel(states.values, states.probs)
    if cfg["kernel.model"] == "custom_quantile":
        cfg = dict(cfg, **{"kernel.path": os.path.join(work, cfg["kernel.path"])})
    return lib.cli.build_kernel(cfg)


def lognormal_moment(sigma, p):
    """E[rho^p] for log rho ~ N(-sigma^2/2, sigma^2)."""
    return math.exp(0.5 * sigma * sigma * p * (p - 1.0))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def verify_attain(lib, work, inst, result, out, quality):
    """Problems with one attain op's outputs (empty list: correct).

    Records the moment errors and construction cost residuals in
    ``quality`` (lists keyed by metric name).
    """
    with open(os.path.join(out, "check_report.json")) as fh:
        report = json.load(fh)
    problems = []
    moments = report["kernel_assumptions"]["moments"]
    if not moments:
        problems.append("no moments reported")
    for m in moments:
        p = m["order"]
        for key, order in (("E[rho^p]", p), ("E[rho^-p]", -p)):
            exact = lognormal_moment(inst["sigma"], order)
            est = m[key]
            err = _rel(est, exact) if isinstance(est, (int, float)) else math.inf
            quality["moment_err"].append(err)
    holds = report.get("delta_threshold", {}).get("holds")
    if inst["delta"] > 1.0:
        if holds != "no":
            problems.append(f"delta {inst['delta']} > 1 but delta_threshold.holds = {holds!r}")
        if result.get("demo_code") != 0:
            problems.append(f"demo-nonattain exited {result.get('demo_code')}")
        elif "non-attainability demonstrated" not in result["demo_stdout"]:
            problems.append("demonstration did not report non-attainability")
        else:
            problems += _verify_construction(lib, work, inst, out, quality)
    elif holds is None:
        problems.append("no delta_threshold verdict")
    return problems


def _verify_construction(lib, work, inst, out, quality):
    """Rebuild every element of nonattainability.csv from its (a_n, b_n).

    Element n pays x = b/(2 Q(A)) on A = {rho <= b} and -y = -(b - 2 x0)/(2 Q(A^c))
    off it, with P(A^c) = a.  Checks that b is the kernel level q_rho(1 - a)
    (from the stdlib normal quantile), that the level meets the defining
    inequality w_minus(a) u_minus(1/a) < 1/n, that the reported value is the
    element's CPT value, and that market.budget prices it at x0.
    """
    cfg = lib.cli.load_config(os.path.join(work, inst["config"]))
    u_plus, u_minus, w_plus, w_minus = prefs = lib.cli.build_preferences(cfg)
    sigma, x0 = inst["sigma"], float(cfg["x0"])
    kernel = lib.market.LognormalKernel(sigma)
    problems = []
    rows = _csv_rows(os.path.join(out, "nonattainability.csv"))
    if not rows:
        return ["no construction elements written"]
    for row in rows:
        n, a, b = int(row["n"]), float(row["a_n"]), float(row["b_n"])
        level = math.exp(-0.5 * sigma * sigma - sigma * NormalDist().inv_cdf(a))
        if not _rel(b, level) <= 1e-9:
            problems.append(f"element n={n}: b_n = {b!r} but q_rho(1 - a_n) = {level!r}")
        if not float(w_minus.log_eval(a)) + float(u_minus.log_eval(1.0 / a)) < -math.log(n):
            problems.append(f"element n={n}: level a_n = {a!r} misses w(a) u(1/a) < 1/n")
        tail = float(kernel.tail_expectation(a))
        law = lib.choquet.DiscreteLaw(
            [b / (2.0 * (1.0 - tail)), -(b - 2.0 * x0) / (2.0 * tail)], [1.0 - a, a]
        )
        value = lib.choquet.cpt_value(law, *prefs).total
        if not abs(value - float(row["V"])) <= REL_TOL * max(1.0, abs(value)):
            problems.append(f"element n={n}: V = {row['V']} but the element is worth {value!r}")
        err = abs(lib.market.budget(kernel, law) - x0)
        quality["budget_err"].append(err)
        if not err <= CONSTRUCTION_COST_TOL:
            problems.append(f"element n={n} costs {err:.3g} away from x0")
    return problems


def _csv_rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


_OPT_LINE = re.compile(r"value = (\S+), cost = (\S+), converged = (True|False)")


def parse_optimize(out, stdout):
    """The reported value, cost and convergence flag, and the written profile."""
    match = _OPT_LINE.search(stdout)
    if match is None:
        raise ValueError("optimize printed no value line")
    rows = _csv_rows(os.path.join(out, "portfolio.csv"))
    return {
        "value": float(match.group(1)),
        "cost": float(match.group(2)),
        "converged": match.group(3) == "True",
        "q": np.array([float(r["q"]) for r in rows]),
    }


def verify_optimize(lib, inst, parsed, kernel, prefs, quality):
    """Problems with one optimize op's outputs (empty list: correct)."""
    q = parsed["q"]
    if q.size == 0:
        return ["empty profile"]
    problems = []
    if np.any(np.diff(q) < 0.0):
        problems.append("profile decreases")
    else:
        law = lib.choquet.DiscreteLaw(q, np.full(q.size, 1.0 / q.size))
        value = lib.choquet.cpt_value(law, *prefs).total
        if not _rel(value, parsed["value"]) <= REL_TOL:
            problems.append(f"value {parsed['value']!r} but cpt_value gives {value!r}")
        cost = lib.market.budget(kernel, law)
        if not abs(cost - parsed["cost"]) <= REL_TOL * max(1.0, abs(cost)):
            problems.append(f"cost {parsed['cost']!r} but market.budget gives {cost!r}")
        quality["budget_err"].append(abs(cost - inst["x0"]))
    if not parsed["cost"] <= inst["x0"] + COST_SLACK:
        problems.append(f"cost {parsed['cost']!r} exceeds x0 = {inst['x0']!r}")
    quality["value"].append(parsed["value"])
    quality["unconverged"].append(0.0 if parsed["converged"] else 1.0)
    return problems


def verify_price(lib, result, quality):
    """Problems with one price op's outputs (empty list: correct)."""
    law = result["law"]
    u_plus, u_minus, w_plus, w_minus = result["prefs"]
    value = result["value"]
    problems = []
    sides = (("gain", value.v_plus, law.positive_part(), u_plus, w_plus),
             ("loss", value.v_minus, law.negative_part(), u_minus, w_minus))
    for side, got, part, u, w in sides:
        oracle = lib.choquet.choquet_oracle(part, u, w)
        err = abs(got - oracle) / max(abs(oracle), 1.0)
        quality["oracle_err"].append(err)
        if not err <= REL_TOL:
            problems.append(f"{side} side {got!r} disagrees with the oracle {oracle!r}")
    lo, hi = result["bracket"]
    slack = REL_TOL * max(1.0, abs(lo), abs(hi))
    if not lo - slack <= result["cost"] <= hi + slack:
        problems.append(f"budget {result['cost']!r} outside the bracket [{lo!r}, {hi!r}]")
    elif not abs(result["cost"] - lo) <= slack:
        # budget prices the anti-comonotone arrangement: the cheapest one
        problems.append(f"budget {result['cost']!r} is not the bracket's lower end {lo!r}")
    return problems


def verify(workload, lib, work, inst, result, out, quality):
    """Problems with one op's outputs; a non-zero exit code is a failure."""
    if result["code"] != 0:
        return [f"exited {result['code']}"]
    if workload == "attain":
        return verify_attain(lib, work, inst, result, out, quality)
    if workload == "optimize":
        cfg = lib.cli.load_config(os.path.join(work, inst["config"]))
        parsed = parse_optimize(out, result["stdout"])
        return verify_optimize(lib, inst, parsed, lib.cli.build_kernel(cfg),
                               lib.cli.build_preferences(cfg), quality)
    return verify_price(lib, result, quality)
