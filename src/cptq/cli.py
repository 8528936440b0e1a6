"""Experiment runner: value computation, condition checks, the
non-attainability demonstration, the quantile solver, and elasticity
estimates, with reproducible file outputs.

Configuration is a flat key = value text file with dotted keys, e.g.::

    kernel.model = lognormal
    kernel.sigma = 0.2
    utility.plus.kind = exponential
    utility.plus.alpha = 1.0
    utility.minus.kind = logarithmic
    distortion.plus.kind = prelec
    distortion.plus.beta = 1.0
    distortion.plus.shape = 0.5
    distortion.minus.kind = prelec
    distortion.minus.beta = 1.0
    distortion.minus.shape = 0.5
    x0 = 1.0

Any key can be overridden from the environment as CPTQ_<KEY> with dots
replaced by double underscores (CPTQ_KERNEL__SIGMA=0.3).  A key that no
command reads, in the file or the environment, is a configuration error,
except ``optimize.n_starts`` and ``optimize.max_iter``: the knobs of an
earlier restarted search, still accepted and ignored so that configs
written for it load.  A numeric key holding text, or a count or strength
out of range, is a configuration error that names the key.
Every output file starts with a comment block echoing the resolved
configuration, so runs are reproducible byte for byte.  ``check``,
``demo-nonattain`` and ``optimize`` each print one ``attainability:`` line,
the verdict of ``attainability.regime``.

Exit codes: 0 success (a "not attainable" finding is a successful run),
2 configuration error, 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import attainability as attn
from . import constructions, functions, market, optimizer
from .choquet import DiscreteLaw, cpt_value
from .errors import AssociationError, ConfigError, DomainError

ENV_PREFIX = "CPTQ_"

def parse_config_text(text):
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = _coerce(key, value)
    return cfg


def _coerce(key, token):
    """The value of ``key``: text for a ``*.path`` key, else ``token`` as an
    int, else as a float (inf included), else as text."""
    if key.endswith(".path"):  # a file name is read as written: 007 is not 7
        return token
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def apply_env_overrides(cfg, environ=None):
    environ = os.environ if environ is None else environ
    # decode only the values of the CPTQ_* names
    for name in [name for name in environ if name.startswith(ENV_PREFIX)]:
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        cfg[key] = _coerce(key, environ[name])
    return cfg


def load_config(path, environ=None):
    try:
        with open(path) as fh:
            cfg = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return apply_env_overrides(cfg, environ)


def _config_keys():
    """Every key a command reads; one set for all commands."""
    keys = {
        "kernel.model", "kernel.sigma", "kernel.path", "law.path", "x0",
        "check.delta", "check.moment_orders", "demo.n_max", "demo.gap_tol",
        "optimize.n", "optimize.n_starts", "optimize.max_iter", "optimize.q_min",
        "optimize.q_max", "optimize.eta", "optimize.delta",
    }
    for group, kinds, extra in (("utility", functions.UTILITY_KINDS, ()),
                                ("distortion", functions.DISTORTION_KINDS, ("delta",))):
        names = {"kind", "path", *extra}.union(*(cls.params for cls in kinds.values()))
        keys.update(f"{group}.{side}.{name}" for side in ("plus", "minus") for name in names)
    return keys


CONFIG_KEYS = _config_keys()


def check_keys(cfg):
    """Refuse a key no command reads: a typo in the file or in a CPTQ_* variable."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)} "
                          f"(in the file or a {ENV_PREFIX}* variable)")


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing config key '{key}'")
    return cfg[key]


_REQUIRED = object()


def _number(cfg, key, default=_REQUIRED, integer=False, positive=False):
    """The number at ``key``, ``default`` when the key is absent; a value of
    the wrong type or sign is a config error that names the key."""
    if default is not _REQUIRED and key not in cfg:
        return default
    value = _require(cfg, key)
    if not isinstance(value, int if integer else (int, float)) or math.isnan(value):
        raise ConfigError(f"{key} = {value!r}: expected {'an integer' if integer else 'a number'}")
    if positive and not value > 0:
        raise ConfigError(f"{key} = {value!r}: must be positive")
    return value if integer else float(value)


def _load_path(cfg, key, loader):
    """``loader`` applied to the file at ``key``; a bad file is a config error."""
    path = str(_require(cfg, key))
    try:
        return loader(path)
    except (OSError, DomainError) as exc:
        raise ConfigError(f"{key} = {path}: {exc}") from exc


def build_kernel(cfg):
    model = _require(cfg, "kernel.model")
    if model == "lognormal":
        return market.LognormalKernel(_number(cfg, "kernel.sigma"))
    if model == "custom_quantile":
        return _load_path(cfg, "kernel.path", market.TableKernel.from_csv)
    raise ConfigError(f"unknown kernel.model '{model}'")


def build_utility(cfg, side):
    prefix = f"utility.{side}"
    kind = _require(cfg, f"{prefix}.kind")
    if kind == "custom":
        return _load_path(cfg, f"{prefix}.path", functions.TableUtility.from_csv)
    return _from_registry(cfg, prefix, kind, functions.UTILITY_KINDS)


def build_distortion(cfg, side, u_minus=None):
    prefix = f"distortion.{side}"
    kind = _require(cfg, f"{prefix}.kind")
    if kind == "associated":
        if u_minus is None:
            raise ConfigError("associated distortion needs utility.minus")
        if isinstance(u_minus, functions.TableUtility):
            # u(1/p) is needed for every p in (0, 1], far beyond any table
            raise ConfigError(f"{prefix}.kind = associated needs a parametric loss "
                              "utility, not utility.minus.kind = custom")
        try:
            return functions.AssociatedDistortion(
                u_minus, _number(cfg, f"{prefix}.delta", positive=True)
            )
        except AssociationError as exc:
            raise ConfigError(f"{prefix}.kind = associated: {exc}") from exc
    if kind == "custom":
        return _load_path(cfg, f"{prefix}.path", functions.TableDistortion.from_csv)
    return _from_registry(cfg, prefix, kind, functions.DISTORTION_KINDS)


def _from_registry(cfg, prefix, kind, kinds):
    """The registered class of ``kind``, built from its ``params`` keys."""
    if kind not in kinds:
        raise ConfigError(f"unknown {prefix}.kind '{kind}'")
    cls = kinds[kind]
    return cls(*(_number(cfg, f"{prefix}.{name}") for name in cls.params))


def build_preferences(cfg):
    u_plus = build_utility(cfg, "plus")
    u_minus = build_utility(cfg, "minus")
    w_plus = build_distortion(cfg, "plus", u_minus)
    w_minus = build_distortion(cfg, "minus", u_minus)
    return u_plus, u_minus, w_plus, w_minus


def config_header(cfg, seed=None):
    lines = [f"cptq {__version__}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {cfg[key]}")
    if seed is not None:
        lines.append(f"seed = {seed}")
    return lines


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_value(cfg, out_dir, seed):
    law = _load_path(cfg, "law.path", DiscreteLaw.from_csv)
    u_plus, u_minus, w_plus, w_minus = build_preferences(cfg)
    value = cpt_value(law, u_plus, u_minus, w_plus, w_minus)
    print(value)
    path = os.path.join(out_dir, "value.csv")
    functions.write_table_csv(path, ("v_plus", "v_minus", "total"),
                              [(value.v_plus, value.v_minus, value.total)],
                              config_header(cfg, seed))
    print(f"wrote {path}")
    return 0


def cmd_check(cfg, out_dir, seed):
    kernel = build_kernel(cfg)
    u_plus, u_minus, w_plus, w_minus = build_preferences(cfg)
    key = "check.moment_orders"  # comma-separated numbers
    orders = tuple(_number({key: _coerce(key, tok)}, key)
                   for tok in str(cfg.get(key, "1,2,4,8,16")).split(","))
    verdict = attn.regime(u_minus, w_minus, _number(cfg, "check.delta", None, positive=True))
    report = {
        "library_version": __version__,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "kernel_assumptions": market.check_assumptions(kernel, moment_orders=orders).as_dict(),
        "attainability": verdict.as_dict(),
    }
    report.update((name, part.as_dict()) for name, part in verdict.parts.items()
                  if name != "loss_dominance")
    if math.isinf(u_minus.saturation):
        if "loss_growth_condition" not in report:
            # regime evaluates growth only below delta = 1; report it at 0.5 otherwise
            delta = verdict.parameters_found["delta"]
            report["loss_growth_condition"] = attn.check_growth_condition(
                u_minus, delta if delta is not None and delta < 1 else 0.5
            ).as_dict()
        z = functions.z_transform(u_minus)
        try:
            report["elasticity"] = {
                "AE_transform": attn.asymptotic_elasticity(z),
                "AE_utility": attn.asymptotic_elasticity(u_minus),
            }
        except DomainError as exc:  # tails the estimate cannot reach
            report["elasticity"] = {"error": str(exc)}
    path = os.path.join(out_dir, "check_report.json")
    _write_json(path, report)
    print(f"loss_liminf: {report['loss_liminf']['holds']}")
    if "delta_threshold" in report:
        print(f"delta_threshold: {report['delta_threshold']['holds']}")
    print(f"attainability: {verdict.holds} ({verdict.detail})")
    print(f"kernel assumptions satisfied: {report['kernel_assumptions']['all_satisfied']}")
    print(f"wrote {path}")
    return 0


def cmd_demo_nonattain(cfg, out_dir, seed):
    kernel = build_kernel(cfg)
    u_plus, u_minus, w_plus, w_minus = build_preferences(cfg)
    x0 = _number(cfg, "x0")
    n_max = _number(cfg, "demo.n_max", 32, integer=True, positive=True)
    gap_tol = _number(cfg, "demo.gap_tol", constructions.DEFAULT_GAP_TOL, positive=True)
    report = constructions.demonstrate_nonattainability(
        kernel, u_plus, u_minus, w_plus, w_minus, x0, n_max=n_max, gap_tol=gap_tol
    )
    csv_path = os.path.join(out_dir, "nonattainability.csv")
    report.to_csv(csv_path, header_lines=config_header(cfg, seed))
    svg_path = os.path.join(out_dir, "nonattainability.svg")
    report.to_svg(svg_path)
    print(f"elements: {len(report.elements)}, skipped (level below capital bar): "
          f"{len(report.skipped)}")
    print(f"ceiling M = {report.ceiling}, final gap = {report.final_gap:.6g}")
    print(f"attainability: {report.verdict.holds} ({report.verdict.detail})")
    print("non-attainability demonstrated" if report.nonattainability_demonstrated
          else f"gap still above {report.gap_tol} at n_max={n_max}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def cmd_optimize(cfg, out_dir, seed):
    kernel = build_kernel(cfg)
    u_plus, u_minus, w_plus, w_minus = build_preferences(cfg)
    x0 = _number(cfg, "x0")
    delta = _number(cfg, "optimize.delta", None, positive=True)
    opts = optimizer.SolveOptions(
        q_min=_number(cfg, "optimize.q_min", -math.inf),
        q_max=_number(cfg, "optimize.q_max", math.inf),
        eta_moment=_number(cfg, "optimize.eta", 1.2, positive=True),
    )
    if not opts.q_min <= opts.q_max or opts.q_min == math.inf or opts.q_max == -math.inf:
        raise ConfigError(f"optimize.q_min = {opts.q_min!r}, optimize.q_max = {opts.q_max!r}: "
                          "the box needs q_min <= q_max, q_min < inf and q_max > -inf")
    n_cells = _number(cfg, "optimize.n", 512, integer=True, positive=True)
    # the sweep's lattice spans the box; a table refuses arguments past its end
    for u, side, key, reach, need in ((u_minus, "minus", "optimize.q_min", -opts.q_min, ">= -"),
                                      (u_plus, "plus", "optimize.q_max", opts.q_max, "<= ")):
        if isinstance(u, functions.TableUtility) and reach > u.xs[-1]:
            end = float(u.xs[-1])
            raise ConfigError(f"utility.{side}.kind = custom is tabulated up to "
                              f"x = {end!r}: set {key} {need}{end!r}")
    if delta is not None and isinstance(u_minus, functions.TableUtility):
        # optimize.delta names u_minus's associated family w_delta, which
        # distortion.*.kind = associated already refuses over a table
        raise ConfigError("optimize.delta needs a parametric loss utility, "
                          "not utility.minus.kind = custom")
    portfolio, diag = optimizer.solve(
        kernel, u_plus, u_minus, w_plus, w_minus, x0, n_cells=n_cells, opts=opts
    )
    verdict = attn.regime(u_minus, w_minus, delta)
    header = config_header(cfg, seed)
    port_path = os.path.join(out_dir, "portfolio.csv")
    portfolio.to_csv(port_path, header_lines=header)
    diag_path = os.path.join(out_dir, "diagnostics.csv")
    functions.write_table_csv(diag_path, ("accepted_step", "value", "neg_moment"),
                              ((i, v, m) for i, (v, m) in
                               enumerate(zip(diag.value_trace, diag.neg_moment_trace))),
                              header)
    print(f"value = {portfolio.cpt.total!r}, cost = {portfolio.cost!r}, "
          f"converged = {diag.converged}, gap = {diag.gap!r}, box_binds = {diag.box_binds}")
    print(f"attainability: {verdict.holds} ({verdict.detail})")
    print(f"wrote {port_path}")
    print(f"wrote {diag_path}")
    return 0


def cmd_elasticity(cfg, out_dir, seed):
    u_minus = build_utility(cfg, "minus")
    if not math.isinf(u_minus.saturation):
        raise ConfigError("elasticity estimates need an unbounded loss utility")
    z = functions.z_transform(u_minus)
    ae_z = attn.asymptotic_elasticity(z)
    ae_u = attn.asymptotic_elasticity(u_minus)
    print(f"AE of growth transform: {ae_z!r}")
    print(f"AE of utility:          {ae_u!r}")
    path = os.path.join(out_dir, "elasticity.csv")
    functions.write_table_csv(path, ("quantity", "estimate"),
                              [("AE_transform", ae_z), ("AE_utility", ae_u)],
                              config_header(cfg, seed))
    print(f"wrote {path}")
    return 0


COMMANDS = {
    "value": cmd_value,
    "check": cmd_check,
    "demo-nonattain": cmd_demo_nonattain,
    "optimize": cmd_optimize,
    "elasticity": cmd_elasticity,
}


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="cptq",
        description="Prospect-theory portfolio experiments in a complete market",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed in output headers")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        check_keys(cfg)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
