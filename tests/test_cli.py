import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from cptq import attainability as attn
from cptq import cli, functions
from cptq.errors import ConfigError

DEMO_CFG = """\
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
demo.n_max = 8
demo.gap_tol = 0.5
"""

OPT_CFG = """\
kernel.model = lognormal
kernel.sigma = 0.2
utility.plus.kind = exponential
utility.plus.alpha = 1.0
utility.minus.kind = power
utility.minus.alpha = 2.0
distortion.plus.kind = identity
distortion.minus.kind = associated
distortion.minus.delta = 0.5
x0 = 1.0
optimize.n = 16
optimize.delta = 0.5
"""

CHECK_CFG = """\
kernel.model = lognormal
kernel.sigma = 0.2
utility.plus.kind = exponential
utility.plus.alpha = 1.0
utility.minus.kind = power
utility.minus.alpha = 2.0
distortion.plus.kind = identity
distortion.minus.kind = power
distortion.minus.beta = 1.0
check.delta = 0.5
check.moment_orders = 1,2
x0 = 1.0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_parsing_and_types(tmp_path):
    cfg = cli.parse_config_text("a.b = 2\nc = 0.5\nd = text # trailing\n# comment\ne = inf\n")
    assert cfg == {"a.b": 2, "c": 0.5, "d": "text", "e": math.inf}
    with pytest.raises(ConfigError):
        cli.parse_config_text("not a pair\n")


def test_env_overrides(tmp_path):
    cfg = {"kernel.sigma": 0.2}
    cli.apply_env_overrides(cfg, {"CPTQ_KERNEL__SIGMA": "0.4", "OTHER": "1"})
    assert cfg["kernel.sigma"] == 0.4


def test_path_keys_are_read_as_written(tmp_path, monkeypatch, capsys):
    # a bare numeric file name must not become a number: 007 is not 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "007").write_text("value,prob\n2.0,0.25\n0.0,0.75\n")
    prefs = ("utility.plus.kind = power\nutility.plus.alpha = 1.0\n"
             "utility.minus.kind = power\nutility.minus.alpha = 1.0\n"
             "distortion.plus.kind = identity\ndistortion.minus.kind = identity\n")
    cfg = _write(tmp_path, "v.cfg", prefs + "law.path = 007\n")
    assert cli.main(["value", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert cli.parse_config_text("law.path = 007\n") == {"law.path": "007"}
    cfg = _write(tmp_path, "e.cfg", prefs)
    monkeypatch.setenv("CPTQ_LAW__PATH", "007")
    assert cli.main(["value", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "0.5" in capsys.readouterr().out


def test_value_command(tmp_path, capsys):
    law = tmp_path / "law.csv"
    law.write_text("value,prob\n2.0,0.25\n0.0,0.75\n")
    cfg = _write(
        tmp_path, "v.cfg",
        "utility.plus.kind = power\nutility.plus.alpha = 1.0\n"
        "utility.minus.kind = power\nutility.minus.alpha = 1.0\n"
        "distortion.plus.kind = power\ndistortion.plus.beta = 2.0\n"
        "distortion.minus.kind = identity\n"
        f"law.path = {law}\n",
    )
    rc = cli.main(["value", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.125" in out
    body = (tmp_path / "value.csv").read_text().splitlines()
    assert body[-1] == "0.125,0.0,0.125"


def test_check_command_power_grid(tmp_path):
    # alpha = 2 loss utility against beta = 1 power distortion: liminf holds
    cfg = _write(tmp_path, "c.cfg", CHECK_CFG)
    rc = cli.main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["loss_liminf"]["holds"] == "yes"
    assert report["delta_threshold"]["holds"] == "yes"
    assert report["kernel_assumptions"]["all_satisfied"] is True
    assert all(m["E[rho^p]_converged"] and m["E[rho^-p]_converged"]
               for m in report["kernel_assumptions"]["moments"])
    assert len(report["loss_liminf"]["evidence"]) >= 8


def test_demo_command_gap_decreasing(tmp_path):
    cfg = _write(tmp_path, "d.cfg", DEMO_CFG)
    rc = cli.main(["demo-nonattain", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    rows = [line for line in (tmp_path / "nonattainability.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("n,")]
    gaps = [float(r.split(",")[-1]) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert (tmp_path / "nonattainability.svg").exists()


def test_demo_refusal_is_computation_error(tmp_path):
    bad = DEMO_CFG.replace("utility.minus.kind = logarithmic",
                           "utility.minus.kind = power\nutility.minus.alpha = 2.0")
    bad = bad.replace("distortion.minus.kind = prelec",
                      "distortion.minus.kind = power").replace(
        "distortion.minus.beta = 1.0\ndistortion.minus.shape = 0.5",
        "distortion.minus.beta = 1.0")
    cfg = _write(tmp_path, "bad.cfg", bad)
    rc = cli.main(["demo-nonattain", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3


def test_optimize_command(tmp_path):
    cfg = _write(tmp_path, "o.cfg", OPT_CFG)
    rc = cli.main(["optimize", "--config", cfg, "--out", str(tmp_path), "--seed", "5"])
    assert rc == 0
    port = (tmp_path / "portfolio.csv").read_text().splitlines()
    assert port[0].startswith("# cptq ")
    assert "p,q" in port
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert any(line.startswith("accepted_step") for line in diag)


def test_elasticity_command(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg", CHECK_CFG)
    rc = cli.main(["elasticity", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "elasticity.csv").read_text()
    rows = dict(line.split(",") for line in text.splitlines()
                if line and not line.startswith("#") and "," in line and
                not line.startswith("quantity"))
    assert abs(float(rows["AE_utility"]) - 2.0) < 2e-3
    assert abs(float(rows["AE_transform"]) - 1.0) < 2e-3


def test_missing_key_is_config_error(tmp_path):
    cfg = _write(tmp_path, "m.cfg", "kernel.model = lognormal\n")
    rc = cli.main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


def test_unknown_kind_is_config_error(tmp_path):
    cfg = _write(tmp_path, "u.cfg", CHECK_CFG.replace(
        "utility.minus.kind = power", "utility.minus.kind = cubic"))
    rc = cli.main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("table", [
    "p,q\n0.0,0.5\n0.5,1.0\n1.0,1.0\n",  # flat stretch
    "p,q\n0.0,0.5\n0.5,one\n1.0,2.0\n",  # non-numeric cell
    "p,q\n0.0,0.5\n0.5,nan\n1.0,2.0\n",  # NaN cell
    None,                                  # no such file
], ids=["flat", "non_numeric", "nan", "missing"])
def test_bad_kernel_table_is_config_error(tmp_path, capsys, table):
    path = tmp_path / "kernel.csv"
    if table is not None:
        path.write_text(table)
    table_kernel = f"kernel.model = custom_quantile\nkernel.path = {path}"
    cfg = _write(tmp_path, "k.cfg", CHECK_CFG.replace(
        "kernel.model = lognormal\nkernel.sigma = 0.2", table_kernel))
    rc = cli.main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert f"kernel.path = {path}" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    rc = cli.main(["check", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 2


def test_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, "o.cfg", OPT_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["optimize", "--config", cfg, "--out", str(out1), "--seed", "42"]) == 0
    assert cli.main(["optimize", "--config", cfg, "--out", str(out2), "--seed", "42"]) == 0
    assert (out1 / "portfolio.csv").read_bytes() == (out2 / "portfolio.csv").read_bytes()
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()

    dcfg = _write(tmp_path, "d.cfg", DEMO_CFG)
    assert cli.main(["demo-nonattain", "--config", dcfg, "--out", str(out1)]) == 0
    assert cli.main(["demo-nonattain", "--config", dcfg, "--out", str(out2)]) == 0
    assert (out1 / "nonattainability.csv").read_bytes() == (out2 / "nonattainability.csv").read_bytes()


def test_commands_in_one_process_match_lone_runs(tmp_path, capsys):
    # main builds its parser once per process: check then optimize in this
    # process print and write what each prints and writes in a process alone
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parent.parent))
    together = tmp_path / "together"
    cli._parser.cache_clear()
    for command, text in (("check", CHECK_CFG), ("optimize", OPT_CFG)):
        cfg, alone = _write(tmp_path, f"{command}.cfg", text), tmp_path / command
        proc = subprocess.run([sys.executable, "-m", "cptq.cli", command, "--config", cfg,
                               "--out", str(alone)], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert cli.main([command, "--config", cfg, "--out", str(together)]) == 0
        assert capsys.readouterr().out == proc.stdout.replace(str(alone), str(together))
        for path in alone.iterdir():
            assert (together / path.name).read_bytes() == path.read_bytes(), path.name


def test_output_headers_echo_config(tmp_path):
    cfg = _write(tmp_path, "o.cfg", OPT_CFG)
    out = tmp_path / "hdr"
    cli.main(["optimize", "--config", cfg, "--out", str(out), "--seed", "1"])
    header = [line for line in (out / "portfolio.csv").read_text().splitlines()
              if line.startswith("#")]
    assert any("cptq" in line for line in header)
    assert any("kernel.sigma = 0.2" in line for line in header)
    assert any("seed = 1" in line for line in header)


def _assert_table_csv(path):
    """A leading ``# cptq`` comment block, LF line ends, one header row, and
    float cells that read back to the same text."""
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().split("\n")[:-1]
    n_comments = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    assert n_comments > 0 and lines[0].startswith("# cptq ")
    header, *rows = (line.split(",") for line in lines[n_comments:])
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for cell in row:
            if not (cell.isdigit() or cell.startswith("AE_")):  # counters and labels
                assert repr(float(cell)) == cell


def test_output_tables_share_one_format(tmp_path):
    law = tmp_path / "law.csv"
    law.write_text("value,prob\n2.0,0.25\n-1.5,0.25\n0.5,0.5\n")
    runs = [("value", CHECK_CFG + f"law.path = {law}\n", ["value.csv"]),
            ("optimize", OPT_CFG, ["portfolio.csv", "diagnostics.csv"]),
            ("demo-nonattain", DEMO_CFG, ["nonattainability.csv"]),
            ("elasticity", CHECK_CFG, ["elasticity.csv"])]
    for command, text, names in runs:
        cfg = _write(tmp_path, f"{command}.cfg", text)
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in names:
            _assert_table_csv(out / name)


def _table_minus_cfg(tmp_path, delta):
    table = tmp_path / "u.csv"
    table.write_text("x,value\n0.0,0.0\n1.0,1.0\n2.0,1.5\n4.0,2.0\n")
    return _write(tmp_path, "t.cfg", CHECK_CFG.replace(
        "utility.minus.kind = power\nutility.minus.alpha = 2.0",
        f"utility.minus.kind = custom\nutility.minus.path = {table}").replace(
        "check.delta = 0.5", f"check.delta = {delta}"))


@pytest.mark.parametrize("delta", [0.5, 1.5])
def test_check_table_loss_utility_inconclusive(tmp_path, capsys, delta):
    # the table stops at x = 4: the liminf probes reach 1e12, so no verdict
    cfg = _table_minus_cfg(tmp_path, delta)
    assert cli.main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "loss_liminf: inconclusive" in out and "delta_threshold: inconclusive" in out
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert "beyond the tabulated range" in report["elasticity"]["error"]


def test_associated_distortion_of_table_loss_utility_refused(tmp_path, capsys):
    # w(p) needs u(1/p) for every p in (0, 1], beyond any table's last row
    text = pathlib.Path(_table_minus_cfg(tmp_path, 0.5)).read_text().replace(
        "distortion.minus.kind = power\ndistortion.minus.beta = 1.0",
        "distortion.minus.kind = associated\ndistortion.minus.delta = 0.5")
    cfg = _write(tmp_path, "a.cfg", text + "optimize.n = 16\n")
    for command in ("check", "optimize"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "distortion.minus.kind = associated" in err
        assert "utility.minus.kind = custom" in err


def test_associated_distortion_of_bounded_utility_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "b.cfg", OPT_CFG.replace(
        "utility.minus.kind = power\nutility.minus.alpha = 2.0",
        "utility.minus.kind = exponential\nutility.minus.alpha = 1.0"))
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "distortion.minus.kind = associated" in capsys.readouterr().err


@pytest.mark.parametrize("side, key, bound", [("minus", "optimize.q_min", -4.0),
                                              ("plus", "optimize.q_max", 4.0)])
def test_optimize_box_beyond_table_refused(tmp_path, capsys, side, key, bound):
    # the lattice spans the box, and the table stops at x = 4
    table = tmp_path / "u.csv"
    table.write_text("x,value\n0.0,0.0\n1.0,1.0\n2.0,1.5\n4.0,2.0\n")
    text = re.sub(rf"utility\.{side}\.kind = \w+\nutility\.{side}\.alpha = \S+",
                  f"utility.{side}.kind = custom\nutility.{side}.path = {table}", OPT_CFG)
    text = text.replace("distortion.minus.kind = associated\ndistortion.minus.delta = 0.5",
                        "distortion.minus.kind = power\ndistortion.minus.beta = 1.2")
    text = text.replace("optimize.delta = 0.5\n", "")
    cfg = _write(tmp_path, "t.cfg", text)
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"utility.{side}.kind = custom" in err and f"{key} " in err and repr(bound) in err
    cfg = _write(tmp_path, "b.cfg", text + "optimize.q_min = -4\noptimize.q_max = 4\n")
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "converged = " in capsys.readouterr().out


@pytest.mark.parametrize("box", ["optimize.q_max = -inf\n", "optimize.q_min = inf\n",
                                 "optimize.q_min = 2\noptimize.q_max = 1\n"])
def test_optimize_box_without_finite_level_is_config_error(tmp_path, capsys, box):
    shipped = pathlib.Path(__file__).parent.parent / "configs" / "optimize.cfg"
    cfg = _write(tmp_path, "box.cfg", shipped.read_text() + box)
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert all(line.split(" = ")[0] in err for line in box.splitlines())


def test_demo_level_search_below_sqrt_underflow(tmp_path, capsys):
    # the level bisection runs below 1e-154, where good * bad underflows to 0;
    # the search must end with its own error, not a division by zero
    cfg = _write(tmp_path, "u.cfg", """\
kernel.model = lognormal
kernel.sigma = 0.3
utility.plus.kind = exponential
utility.plus.alpha = 2.0
utility.minus.kind = logarithmic
distortion.plus.kind = identity
distortion.minus.kind = associated
distortion.minus.delta = 1.3
x0 = 1.0
""")
    assert cli.main(["demo-nonattain", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "ConstructionError" in err and "ZeroDivisionError" not in err


def test_optimize_delta_over_table_loss_utility_refused(tmp_path, capsys):
    # optimize.delta names u_minus's associated w_delta, which needs u(1/p)
    # for every p in (0, 1], far past the table's last row at x = 4
    table = tmp_path / "u.csv"
    table.write_text("x,value\n0.0,0.0\n1.0,1.0\n2.0,1.5\n4.0,2.0\n")
    text = OPT_CFG.replace(
        "utility.minus.kind = power\nutility.minus.alpha = 2.0",
        f"utility.minus.kind = custom\nutility.minus.path = {table}").replace(
        "distortion.minus.kind = associated\ndistortion.minus.delta = 0.5",
        "distortion.minus.kind = power\ndistortion.minus.beta = 1.2")
    text += "optimize.q_min = -4\n"
    assert "optimize.delta = 0.5\n" in text
    cfg = _write(tmp_path, "t.cfg", text)
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "optimize.delta" in err and "utility.minus.kind = custom" in err
    cfg = _write(tmp_path, "b.cfg", text.replace("optimize.delta = 0.5\n", ""))
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 0


BORDER_CFG = """\
kernel.model = lognormal
kernel.sigma = 0.3
utility.plus.kind = exponential
utility.plus.alpha = 2.0
utility.minus.kind = logarithmic
distortion.plus.kind = identity
distortion.minus.kind = associated
distortion.minus.delta = {delta}
check.moment_orders = 1,2
x0 = 1.0
"""


@pytest.mark.parametrize("delta", [1.02, 1.1, 1.3])
def test_check_just_above_delta_one_is_consistent(tmp_path, capsys, delta):
    # the liminf probes stop at x = 1e-12, where (log 1/x)^(1 - delta) has
    # barely moved; the associated family is decided in closed form
    cfg = _write(tmp_path, "c.cfg", BORDER_CFG.format(delta=delta))
    assert cli.main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "loss_liminf: no" in out and "delta_threshold: no" in out


def test_demo_table_loss_utility_refused(tmp_path, capsys):
    cfg = _table_minus_cfg(tmp_path, 1.5)
    assert cli.main(["demo-nonattain", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "ConstructionError" in err and "'inconclusive'" in err


def test_unknown_key_is_config_error(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "k.cfg", OPT_CFG + "optimize.n_start = 3\n")
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "optimize.n_start" in capsys.readouterr().err
    cfg = _write(tmp_path, "o.cfg", OPT_CFG)
    monkeypatch.setenv("CPTQ_OPTIMIZE__N_START", "3")
    assert cli.main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "optimize.n_start" in capsys.readouterr().err


def test_shipped_configs_pass_key_check():
    configs = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.cfg"))
    assert len(configs) == 3
    for path in configs:
        cli.check_keys(cli.load_config(path, environ={}))


def test_benchmark_configs_pass_key_check(tmp_path):
    # every config the benchmark writes uses only keys the CLI accepts
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for workload in workloads.WORKLOADS:
        out = tmp_path / workload
        instances = workloads.generate(workload, 0, str(out))
        assert instances
        for inst in instances:
            cli.check_keys(cli.load_config(out / inst["config"], environ={}))


def test_shipped_optimize_config_converges(tmp_path, capsys):
    config = pathlib.Path(__file__).parent.parent / "configs" / "optimize.cfg"
    assert cli.main(["optimize", "--config", str(config), "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    fields = dict(part.split(" = ") for part in line.split(", "))
    assert fields["converged"] == "True"
    assert float(fields["gap"]) <= 1e-6
    assert float(fields["value"]) >= 0.6395
    assert fields["box_binds"] == "False"


SAMPLE_PARAMS = {"alpha": 1.5, "beta": 0.8, "shape": 0.6}


@pytest.mark.parametrize("group, kinds, build", [
    ("utility", functions.UTILITY_KINDS, cli.build_utility),
    ("distortion", functions.DISTORTION_KINDS, cli.build_distortion),
])
def test_registry_kinds_build_from_params(group, kinds, build):
    grid = np.linspace(0.0, 1.0, 11)
    for kind, cls in kinds.items():
        assert cls.kind == kind
        keys = {f"{group}.minus.{name}": SAMPLE_PARAMS[name] for name in cls.params}
        cfg = {f"{group}.minus.kind": kind, **keys}
        assert set(cfg) <= cli.CONFIG_KEYS
        built = build(cfg, "minus")
        direct = cls(*(SAMPLE_PARAMS[name] for name in cls.params))
        assert type(built) is cls and repr(built) == repr(direct)
        assert np.array_equal(built(grid), direct(grid))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diagnostics_last_row_is_returned_portfolio(tmp_path, capsys, seed):
    # above the threshold the returned profile comes from spending the budget
    # slack, after the last sweep; a logarithmic loss keeps the solve on the
    # lattice path
    cfg = _write(tmp_path, "o.cfg", OPT_CFG.replace("= 0.5", "= 1.5").replace(
        "optimize.n = 16", "optimize.n = 64").replace(
        "utility.minus.kind = power\nutility.minus.alpha = 2.0",
        "utility.minus.kind = logarithmic"))
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path),
                     "--seed", str(seed)]) == 0
    value, q, rows = _optimize_outputs(tmp_path, capsys)
    assert len(rows) > 1
    assert float(rows[-1][1]) == value
    assert float(rows[-1][2]) == float(np.mean(np.maximum(-q, 0.0) ** 1.2))


def test_split_diagnostics_row_is_returned_portfolio(tmp_path, capsys):
    # an exponential gain and a power-2 loss take the split solve: one row
    cfg = _write(tmp_path, "o.cfg", OPT_CFG.replace("optimize.n = 16", "optimize.n = 64"))
    assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 0
    value, q, rows = _optimize_outputs(tmp_path, capsys)
    assert len(rows) == 1
    assert float(rows[0][1]) == value
    assert float(rows[0][2]) == float(np.mean(np.maximum(-q, 0.0) ** 1.2))


def _optimize_outputs(out_dir, capsys):
    """The printed value, the profile of portfolio.csv and the data rows of
    diagnostics.csv, split into fields."""
    value = float(capsys.readouterr().out.split("value = ", 1)[1].split(",", 1)[0])
    rows = (out_dir / "portfolio.csv").read_text().splitlines()
    q = np.array([float(r.split(",")[1]) for r in rows[rows.index("p,q") + 1:]])
    diag = (out_dir / "diagnostics.csv").read_text().splitlines()
    return value, q, [r.split(",") for r in diag[diag.index("accepted_step,value,neg_moment") + 1:]]


@pytest.mark.parametrize("command, key, value", [
    ("optimize", "optimize.n", "2.5"),
    ("optimize", "optimize.n", "0"),
    ("optimize", "optimize.eta", "abc"),
    ("optimize", "optimize.delta", "-1"),
    ("check", "check.moment_orders", "1,2,x"),
    ("check", "check.delta", "abc"),
    ("check", "check.delta", "0"),
    ("demo-nonattain", "demo.n_max", "0"),
])
def test_malformed_number_is_config_error(tmp_path, capsys, command, key, value):
    # the last line of a config wins, so this overrides any earlier value
    text = {"optimize": OPT_CFG, "check": CHECK_CFG, "demo-nonattain": DEMO_CFG}[command]
    cfg = _write(tmp_path, "n.cfg", text + f"{key} = {value}\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, name, holds", [("check", "check", "yes"),
                                                  ("demo-nonattain", "demo_nonattain", "no"),
                                                  ("optimize", "optimize", "yes")])
def test_shipped_configs_print_one_attainability_line(tmp_path, capsys, command, name, holds):
    config = pathlib.Path(__file__).parent.parent / "configs" / f"{name}.cfg"
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("attainability:")]
    assert len(lines) == 1 and lines[0].startswith(f"attainability: {holds} (")


def test_check_evaluates_growth_once(tmp_path, monkeypatch):
    # the report's loss_growth_condition is the one behind delta_threshold
    deltas = []
    growth = attn.check_growth_condition

    def counted(u_minus, delta):
        deltas.append(delta)
        return growth(u_minus, delta)

    monkeypatch.setattr(attn, "check_growth_condition", counted)
    cfg = _write(tmp_path, "a.cfg", OPT_CFG)
    assert cli.main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert deltas == [0.5]
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["attainability"]["holds"] == "yes"
    assert report["loss_growth_condition"]["holds"] == "yes"


NO_SCIPY_SCRIPT = """\
import contextlib, io, json, sys
import cptq, cptq.cli
configs, out = sys.argv[1:3]
for command, name in (("check", "check"), ("demo-nonattain", "demo_nonattain"),
                      ("optimize", "optimize")):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cptq.cli.main([command, "--config", f"{configs}/{name}.cfg", "--out", out])
    assert code == 0, (command, code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_commands_never_import_scipy(tmp_path):
    # a fresh interpreter: this test session has imported scipy itself
    configs = pathlib.Path(__file__).parent.parent / "configs"
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPTQ_")}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(configs), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_modules_have_no_unused_imports():
    # a top-level import that no name in the module reads; the package
    # __init__ is skipped, its imports are the public surface
    unused = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            names = (alias.asname or alias.name.split(".")[0] for alias in stmt.names)
            unused += [f"{path.name}: {name}" for name in names if name not in read]
    assert unused == []
