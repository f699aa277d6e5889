import hashlib
import inspect
import json
import math
import random
import sys

import pytest

from mezofit import verify
from mezofit.bench import ExperimentPlan
from mezofit.cli import _resolve_plan, build_parser, main, parse_budget
from mezofit.configfile import PRESETS, parse_model_config, parse_plan, parse_zo_config
from mezofit.memory import (
    ConfigError,
    MemoryMode,
    ModelConfig,
    field_types,
    memory_for_mode,
)

LLAMA_INI = "[model]\npreset = llama2-7b\n"

TINY_PLAN = """\
[model]
context_length = 6
num_layers = 1
hidden_dim = 8
num_heads = 2
vocab_size = 16
batch_size = 8

[mezo]
epsilon = 1e-3
num_perturbations = 2
master_seed = 5

[experiment]
task = next_token_synthetic
task_seed = 3
steps = 4
eval_every = 2
run_seed = 99
lr_grid_bp = 0.5
lr_grid_mezo = 1e-3
mezo_num_layers = 2
mezo_hidden_dim = 16
mezo_stored_layers = 0.2
"""


@pytest.fixture
def llama_config(tmp_path):
    p = tmp_path / "llama.ini"
    p.write_text(LLAMA_INI)
    return str(p)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_preset_expands_and_overrides_apply():
    cfg = parse_model_config("[model]\npreset = llama2-7b\nnum_layers = 100\n",
                             is_text=True)
    assert cfg.num_layers == 100
    assert cfg.hidden_dim == 4096 and cfg.vocab_size == 32000


def test_presets_have_documented_values():
    assert PRESETS["llama2-7b"]["context_length"] == 2048
    assert PRESETS["gpt2-medium"] == dict(context_length=1024, num_layers=24,
                                          hidden_dim=1024, num_heads=16,
                                          vocab_size=50257, batch_size=1,
                                          bytes_per_param=2.0, stored_layers=1.0)


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError, match="unknown key 'hidden_dims'"):
        parse_model_config("[model]\npreset = llama2-7b\nhidden_dims = 4\n",
                           is_text=True)
    for parse in (parse_model_config, parse_zo_config, parse_plan):
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            parse(TINY_PLAN + "[extra]\nx = 1\n", is_text=True)
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_model_config("[model]\npreset = llama3\n", is_text=True)
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_model_config("[model]\npreset = llama2-7b\nnum_layers = ten\n",
                           is_text=True)


def test_each_key_takes_the_type_of_its_dataclass_field():
    assert {k for k, t in field_types(ModelConfig).items() if t is int} == {
        "context_length", "num_layers", "hidden_dim", "num_heads", "kv_heads",
        "num_mlps", "vocab_size", "batch_size"}
    cfg = parse_model_config(LLAMA_INI + "kv_heads = 8\nstored_layers = 2\n", is_text=True)
    assert cfg.kv_heads == 8 and type(cfg.stored_layers) is float
    zo = parse_zo_config("[mezo]\nlearning_rate = 1\nmaster_seed = -3\n", is_text=True)
    assert type(zo.learning_rate) is float and zo.master_seed == -3
    with pytest.raises(ConfigError, match=r"\[mezo\] master_seed must be an integer"):
        parse_zo_config("[mezo]\nmaster_seed = 1.5\n", is_text=True)
    with pytest.raises(ConfigError, match=r"\[experiment\] batch_size must be an integer"):
        parse_plan(TINY_PLAN + "bp_batch_size = 2.5\n", is_text=True)
    with pytest.raises(ConfigError, match="unknown key 'bp_preset'"):
        parse_plan(TINY_PLAN + "bp_preset = llama2-7b\n", is_text=True)


def test_zo_config_section():
    zo = parse_zo_config("[model]\npreset = llama2-7b\n[mezo]\nepsilon = 1e-4\n"
                         "num_perturbations = 3\n", is_text=True)
    assert zo.epsilon == 1e-4 and zo.num_perturbations == 3


def test_parse_plan_builds_both_models():
    plan = parse_plan(TINY_PLAN, is_text=True)
    assert plan.bp_model.hidden_dim == 8
    assert plan.mezo_model.hidden_dim == 16
    assert plan.mezo_model.num_layers == 2
    assert plan.task.vocab_size == 16
    assert plan.zo.num_perturbations == 2
    assert plan.lr_grid_bp == (0.5,)


def test_bundled_desk_plan_loads():
    # Building the ExperimentPlan checks the matched budget; the plan's lever
    # is that BP affords only the shorter context window.
    plan = parse_plan(*_resolve_plan("desk"))
    assert plan.bp_model.context_length < plan.mezo_model.context_length


def test_parse_plan_refuses_weights_over_the_budget():
    # storing no activations, the MeZO total is its 6656 counted weights at
    # 2 B, 13,312 B; with the 80 norm gains the totals leave out, its 6736
    # weights need 13,472 B and overrun the 13,400 B budget
    plan = TINY_PLAN.replace("mezo_stored_layers = 0.2", "mezo_stored_layers = 0")
    with pytest.raises(ConfigError, match="MeZO model's 6736 weights alone exceed"):
        parse_plan(plan + "bp_batch_size = 4\nbudget_bytes = 13400\n", is_text=True)


def test_parse_plan_missing_key():
    broken = TINY_PLAN.replace("steps = 4\n", "")
    with pytest.raises(ConfigError, match="steps"):
        parse_plan(broken, is_text=True)


def test_parse_plan_bounds_num_perturbations_by_sys_maxsize():
    plan = TINY_PLAN.replace("num_perturbations = 2", "num_perturbations = {}")
    assert parse_plan(plan.format(sys.maxsize), is_text=True).zo.num_perturbations == sys.maxsize
    for n in (sys.maxsize + 1, 10 ** 320):
        with pytest.raises(ConfigError, match="num_perturbations must be an integer in"):
            parse_plan(plan.format(n), is_text=True)


def test_parse_budget_suffixes(llama_config, capsys):
    assert parse_budget("123") == 123.0
    assert parse_budget("80GB") == 80e9
    assert parse_budget("2GiB") == 2.0 * 2**30
    assert parse_budget("1.5 GiB") == 1.5 * 2**30
    for text in ("12 kB", "1e400", "1e300GiB"):  # unknown unit; infinite budgets
        with pytest.raises(ConfigError):
            parse_budget(text)
        assert main(["solve", "--config", llama_config, "--budget", text,
                     "--axis", "d", "--mode", "mezo"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# property and fuzz tests (fixed seeds, standard library only)
# ---------------------------------------------------------------------------

FUZZ_VALUES = ("", "x", "nan", "inf", "-1", "0", "1e3", "2", "3")


def mutate(text: str, rng: random.Random) -> str:
    """One random edit of a config: drop a line, duplicate a key, set a value,
    add a key or an unknown section, or cut the text at a random offset."""
    lines = text.splitlines(keepends=True)
    keyed = [i for i, line in enumerate(lines) if "=" in line and line[0] != "#"]
    if not keyed:  # an earlier cut left no key
        return text
    i = rng.choice(keyed)
    key = lines[i].split("=")[0].strip()
    op = rng.randrange(6)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i + 1, lines[i])
    elif op == 2:
        lines[i] = f"{key} = {rng.choice(FUZZ_VALUES)}\n"
    elif op == 3:  # a key that may be unknown, or known but absent before
        extra = rng.choice(("bogus", "bp_bogus", "mezo_preset", "expansion_factor",
                            "mezo_expansion_factor", "budget_bytes", "epsilon"))
        lines.insert(i + 1, f"{extra} = {rng.choice(FUZZ_VALUES)}\n")
    elif op == 4:
        lines.insert(rng.randrange(len(lines) + 1), "[bogus]\nx = 1\n")
    else:
        return text[:rng.randrange(len(text))]
    return "".join(lines)


def fuzz_cases(count: int, seed: int):
    rng = random.Random(seed)
    sources = (TINY_PLAN, _resolve_plan("desk")[0])
    for _ in range(count):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 2)):
            text = mutate(text, rng)
        yield text


def test_parse_plan_fuzz_returns_a_plan_or_raises_config_error():
    outcomes = set()
    for text in fuzz_cases(1000, seed=1):
        try:
            plan = parse_plan(text, is_text=True)
        except ConfigError:
            outcomes.add("rejected")
        else:
            assert isinstance(plan, ExperimentPlan)
            outcomes.add("parsed")
    assert outcomes == {"parsed", "rejected"}


def test_cmd_plan_fuzz_exits_0_or_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "fuzz.ini"
    codes = set()
    for n, text in enumerate(fuzz_cases(80, seed=2)):
        path.write_text(text)
        code = main(["plan", "--config", str(path), "--mode", ("bp", "mezo")[n % 2]])
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        codes.add(code)
    assert codes == {0, 2}


def test_parse_budget_fuzz_and_unit_round_trip():
    rng = random.Random(2)
    accepted = 0
    for _ in range(3000):
        text = "".join(rng.choice("0123456789.eE+- \tGiBkx")
                       for _ in range(rng.randrange(10)))
        try:
            value = parse_budget(text)
        except ConfigError:
            continue
        assert isinstance(value, float) and value >= 0, text
        accepted += 1
    assert accepted > 100
    for _ in range(500):
        x = rng.choice((0.0, rng.random(), rng.uniform(0, 1e6),
                        10 ** rng.uniform(-300, 300)))
        assert parse_budget(f"{x!r}GiB") == x * 2**30
        assert parse_budget(f" {x!r} GB ") == x * 1e9
        assert parse_budget(repr(x)) == x


# ---------------------------------------------------------------------------
# plan command
# ---------------------------------------------------------------------------

def test_cmd_plan_mezo_total(llama_config, capsys):
    assert main(["plan", "--config", llama_config, "--mode", "mezo", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total_bytes"] == 14_365_491_200.0
    assert out["gradients_bytes"] == 0.0
    assert out["mode"] == "mezo"


def test_cmd_plan_bp_total(llama_config, capsys):
    assert main(["plan", "--config", llama_config, "--mode", "bp", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    # sum of the hand-derived component values 25769803776 + 1048576000
    # + 30601641984
    assert out["total_bytes"] == 57_420_021_760.0


def test_cmd_plan_table_shows_both_units(llama_config, capsys):
    assert main(["plan", "--config", llama_config, "--mode", "bp"]) == 0
    out = capsys.readouterr().out
    assert "GiB" in out and "GB" in out and "total" in out


def test_cmd_plan_json_and_table_agree(llama_config, capsys):
    main(["plan", "--config", llama_config, "--mode", "bp-ckpt", "--json"])
    js = json.loads(capsys.readouterr().out)
    main(["plan", "--config", llama_config, "--mode", "bp-ckpt"])
    table = capsys.readouterr().out
    assert f"{js['total_bytes']:.1f}" in table


def test_cmd_plan_checkpointing_noop_single_layer(tmp_path, capsys):
    p = tmp_path / "one.ini"
    p.write_text("[model]\npreset = llama2-7b\nnum_layers = 1\n")
    main(["plan", "--config", str(p), "--mode", "bp", "--json"])
    plain = json.loads(capsys.readouterr().out)
    main(["plan", "--config", str(p), "--mode", "bp-ckpt", "--json"])
    ckpt = json.loads(capsys.readouterr().out)
    assert plain["total_bytes"] == ckpt["total_bytes"]


def test_cmd_plan_invalid_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[model]\npreset = llama2-7b\nbananas = 4\n")
    assert main(["plan", "--config", str(p), "--mode", "bp"]) == 2
    assert "bananas" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_cmd_sweep_context_axis(llama_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", llama_config, "--axis", "n",
                 "--from", "1", "--to", "32768", "--points", "16",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "axis_value,m_bp,m_mezo,ratio"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert int(first[0]) == 1 and int(last[0]) == 32768
    assert 20 <= float(last[3]) <= 32
    ratios = [float(l.split(",")[3]) for l in lines[1:]]
    assert ratios == sorted(ratios)


def test_cmd_sweep_hidden_dim_starts_at_24x(llama_config, capsys):
    assert main(["sweep", "--config", llama_config, "--axis", "d",
                 "--from", "512", "--to", "32768", "--points", "7"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    first = rows[0].split(",")
    assert int(first[0]) == 512
    assert float(first[3]) == pytest.approx(23.8, abs=0.5)
    # hidden-dim values must stay divisible by the head count
    assert all(int(r.split(",")[0]) % 32 == 0 for r in rows)


def test_cmd_sweep_layers_checkpointed(llama_config, capsys):
    assert main(["sweep", "--config", llama_config, "--axis", "l",
                 "--from", "1", "--to", "100", "--points", "100", "--ckpt"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    last = rows[-1].split(",")
    assert int(last[0]) == 100
    assert float(last[3]) == pytest.approx(2.18, abs=0.02)


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
def test_cmd_sweep_rejects_bad_range(llama_config, capsys):
    for axis, lo, hi, flag in (("n", 100, 10, "--from"), ("n", -5, 10, "--from"),
                               ("n", 0, 10, "--from"), ("d", 0, 64, "--from"),
                               ("l", 0, 4, "--from"), ("n", 1, 10**20, "--to")):
        assert main(["sweep", "--config", llama_config, "--axis", axis,
                     "--from", str(lo), "--to", str(hi), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and err.count("\n") == 1, err


@pytest.mark.parametrize("axis,lo,hi,points", [
    ("l", 1, 4, 10_000_000_000_000),  # would ask numpy for ~80 TB
    ("l", 1, 4, 5),                   # only 4 integers lie in [1, 4]
    ("n", 1, 8, 1),
], ids=["1e13", "one-too-many", "one"])
def test_cmd_sweep_rejects_impossible_points(llama_config, capsys, axis, lo, hi, points):
    assert main(["sweep", "--config", llama_config, "--axis", axis, "--from", str(lo),
                 "--to", str(hi), "--points", str(points)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --points") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

def test_cmd_solve_fixed_point(llama_config, capsys):
    cfg = ModelConfig(**PRESETS["llama2-7b"])
    budget = repr(memory_for_mode(cfg, MemoryMode.MEZO).total_bytes)
    assert main(["solve", "--config", llama_config, "--budget", budget,
                 "--axis", "d", "--mode", "mezo", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 4096


def test_cmd_solve_80gb_bp_matches_scan(llama_config, capsys):
    assert main(["solve", "--config", llama_config, "--budget", "80GB",
                 "--axis", "d", "--mode", "bp", "--json"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    base = ModelConfig(**PRESETS["llama2-7b"])
    feasible = [d for d in range(32, 16384, 32)
                if memory_for_mode(base.replace(hidden_dim=d), MemoryMode.BP).total_bytes <= 80e9]
    assert value == max(feasible)


def test_cmd_solve_infeasible_exit_3(llama_config, capsys):
    assert main(["solve", "--config", llama_config, "--budget", "1",
                 "--axis", "d", "--mode", "mezo"]) == 3
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["d", "l"])
@pytest.mark.parametrize("mode", ["bp", "bp-ckpt", "mezo"])
def test_cmd_solve_near_the_largest_float_budget(llama_config, capsys, axis, mode):
    code = main(["solve", "--config", llama_config, "--budget", "1.7e308",
                 "--axis", axis, "--mode", mode])
    err = capsys.readouterr().err
    assert code == 0 and not err or code == 3 and err.count("\n") == 1, (code, err)


@pytest.mark.parametrize("mode", ["bp-ckpt", "mezo"])
def test_cmd_solve_layers_whose_activation_elements_pass_the_largest_float(tmp_path, capsys,
                                                                          mode):
    # at batch size 128 the solver's bracket reaches a layer count whose
    # B*L*N*D is an int past the largest float
    p = tmp_path / "llama.ini"
    p.write_text(LLAMA_INI + "batch_size = 128\n")
    assert main(["solve", "--config", str(p), "--budget", "1.7e308", "--axis", "l",
                 "--mode", mode, "--json"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    cfg = ModelConfig(**PRESETS["llama2-7b"]).replace(batch_size=128)
    total = lambda l: memory_for_mode(cfg.replace(num_layers=l), mode).total_bytes
    assert total(value) <= 1.7e308 < total(value + 1) < math.inf


@pytest.mark.parametrize("command", [["plan"], ["solve", "--budget", "80GB", "--axis", "d"]],
                         ids=["plan", "solve"])
@pytest.mark.parametrize("mode", ["bp", "bp-ckpt", "mezo"])
@pytest.mark.parametrize("field, value", [("num_layers", 10 ** 320), ("batch_size", 10 ** 400)],
                         ids=["num_layers", "batch_size"])
def test_an_integer_past_the_largest_float_exits_2_with_one_line(tmp_path, capsys, command,
                                                                   mode, field, value):
    p = tmp_path / "llama.ini"
    p.write_text(f"{LLAMA_INI}{field} = {value}\n")
    assert main([*command, "--config", str(p), "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1, err


# The bit-exact guard for refactors of memory.py: the other analytic tests
# compare with pytest.approx, so a reordered sum that moves one ulp would pass
# them. The totals are Python floats and the sweep points are rounded ints, so
# the printed text, and this digest, do not depend on BLAS or the platform.
ANALYTIC_CLI_SHA256 = "9cc07eb3825e196eabd5ba6795fc8a7778609a7fc42973ca0d4a27a8aa24a6b3"


def test_analytic_cli_output_is_bitwise_pinned(llama_config, capsys):
    config = ["--config", llama_config]
    runs = [["plan", *config, "--mode", mode, "--json"] for mode in ("bp", "bp-ckpt", "mezo")]
    for axis, lo, hi, points in (("n", 1, 32768, 16), ("l", 1, 100, 100), ("d", 32, 16384, 16)):
        for ckpt in ([], ["--ckpt"]):
            runs.append(["sweep", *config, "--axis", axis, "--from", str(lo), "--to", str(hi),
                         "--points", str(points), *ckpt])
    runs += [["solve", *config, "--budget", "80GB", "--axis", axis, "--mode", mode, "--json"]
             for axis in ("d", "l") for mode in ("bp", "bp-ckpt", "mezo")]
    out = []
    for argv in runs:
        assert main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == ANALYTIC_CLI_SHA256


@pytest.mark.parametrize("command", [["plan", "--mode", "bp"],
                                     ["sweep", "--axis", "n", "--from", "1", "--to", "8",
                                      "--points", "2"]], ids=["plan", "sweep"])
@pytest.mark.parametrize("field", ["bytes_per_param", "expansion_factor"])
def test_an_infinite_float_exits_2_with_one_line(tmp_path, capsys, command, field):
    p = tmp_path / "llama.ini"
    p.write_text(f"{LLAMA_INI}{field} = inf\n")
    assert main([*command, "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} ") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# train command
# ---------------------------------------------------------------------------

def test_cmd_train_tiny_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.ini"
    plan_path.write_text(TINY_PLAN)
    out_dir = tmp_path / "out"
    assert main(["train", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
    records = (out_dir / "records.csv").read_text()
    assert records.startswith("method,learning_rate,step,")
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["methods"]) == {"bp", "mezo"}


def test_cmd_train_deterministic_modulo_wall_clock(tmp_path):
    plan_path = tmp_path / "plan.ini"
    plan_path.write_text(TINY_PLAN)
    texts = []
    for d in ("a", "b"):
        out_dir = tmp_path / d
        assert main(["train", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
        texts.append((out_dir / "records.csv").read_text())

    def strip_wall(text):
        rows = [r.split(",") for r in text.strip().split("\n")]
        for r in rows[1:]:
            r[3] = "walltime"
        return rows

    assert strip_wall(texts[0]) == strip_wall(texts[1])
    assert texts[0] != texts[1]  # wall clock actually differs


def test_cmd_train_steps_zero(tmp_path, capsys):
    plan_path = tmp_path / "plan.ini"
    plan_path.write_text(TINY_PLAN.replace("steps = 4", "steps = 0"))
    out_dir = tmp_path / "out"
    assert main(["train", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
    rows = (out_dir / "records.csv").read_text().strip().split("\n")[1:]
    assert all(r.split(",")[2] == "0" for r in rows)


@pytest.mark.parametrize("old, new", [
    ("steps = 4", "steps = 4\nbudget_bytes = nan"),
    ("lr_grid_mezo = 1e-3", "lr_grid_mezo = -0.5"),
    ("lr_grid_bp = 0.5", "lr_grid_bp = nan"),
    ("lr_grid_bp = 0.5", "lr_grid_bp = 0.5, inf"),
    ("mezo_hidden_dim = 16", "mezo_hidden_dim = 16\nmezo_expansion_factor = inf"),
    ("mezo_hidden_dim = 16", "mezo_hidden_dim = 16\nmezo_expansion_factor = 1e308"),
    ("mezo_hidden_dim = 16", "mezo_hidden_dim = 16\nmezo_expansion_factor = 1e6"),
    ("steps = 4", f"steps = {10 ** 320}"),
    ("num_perturbations = 2", f"num_perturbations = {10 ** 320}"),
], ids=["nan-budget", "negative-lr", "nan-lr", "inf-lr", "inf-ffn", "1e308-ffn", "1e6-ffn",
        "1e320-steps", "1e320-perturbations"])
def test_cmd_train_rejects_a_bad_plan_before_training(tmp_path, capsys, old, new):
    plan_path = tmp_path / "plan.ini"
    plan_path.write_text(TINY_PLAN.replace(old, new))
    out_dir = tmp_path / "out"
    assert main(["train", "--plan", str(plan_path), "--out", str(out_dir)]) == 2
    assert not (out_dir / "records.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cmd_train_refuses_a_plan_whose_arrays_cannot_be_allocated(tmp_path, capsys):
    # petabytes per sequence: the probe batch's allocation fails at once
    plan_path = tmp_path / "plan.ini"
    plan_path.write_text(TINY_PLAN.replace("task_seed = 3",
                                           "task_seed = 3\ntask_seq_len = 1000000000000000"))
    out_dir = tmp_path / "out"
    assert main(["train", "--plan", str(plan_path), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cmd_train_refuses_a_plan_that_sets_the_mezo_learning_rate(tmp_path, capsys):
    # each MeZO run takes its rate from lr_grid_mezo, so a [mezo] value would be dropped
    plan_path = tmp_path / "plan.ini"
    plan_path.write_text(TINY_PLAN.replace("master_seed = 5", "master_seed = 5\nlearning_rate = 5"))
    assert main(["train", "--plan", str(plan_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "lr_grid_mezo" in err, err


def test_unwritable_out_exits_2_with_one_line(llama_config, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")  # a path under a regular file
    assert main(["train", "--plan", "desk", "--out", out]) == 2
    assert main(["sweep", "--config", llama_config, "--axis", "n", "--from", "1",
                 "--to", "8", "--points", "2", "--out", out]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert main(["plan", "--config", str(tmp_path / "missing.ini"), "--mode", "bp"]) == 2


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_dim_sizes_only_the_restoration_vector(monkeypatch):
    calls = {}
    for name in ("check_restoration", "check_quadratic_unbiasedness", "check_fd_gradient",
                 "check_cosine_positivity"):
        monkeypatch.setattr(verify, name,
                            lambda name=name, **kw: calls.setdefault(name, kw))
    verify.run_verification(dim=3)
    assert [name for name, kw in calls.items() if "dim" in kw] == ["check_restoration"]
    assert calls["check_restoration"]["dim"] == 3 and len(calls) == 4


def test_verify_dim_default_is_the_battery_default():
    args = build_parser().parse_args(["verify"])
    assert (args.dim, args.seed, args.epsilon) == (verify.RESTORE_DIM, verify.SEED, verify.EPSILON)
    assert (verify.SEED, verify.EPSILON) == (0, 1e-3)  # what perfbench's battery runs at
    for check in (verify.run_verification, verify.check_restoration,
                  verify.check_quadratic_unbiasedness, verify.check_fd_gradient,
                  verify.check_cosine_positivity):
        defaults = {name: p.default for name, p in inspect.signature(check).parameters.items()}
        assert defaults.get("seed") == verify.SEED, check.__name__
        assert defaults.get("epsilon", verify.EPSILON) == verify.EPSILON, check.__name__


def test_cmd_verify_rejects_zero_epsilon(capsys):
    assert main(["verify", "--epsilon", "0"]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_cmd_verify_rejects_oversized_dim(capsys):
    assert main(["verify", "--dim", "5000"]) == 2
    assert "dim" in capsys.readouterr().err


def test_cmd_verify_rejects_negative_seed_with_one_line(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed") and captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # an overflow warning would be a second line
@pytest.mark.parametrize("epsilon", ["inf", "1e300"])
def test_cmd_verify_extreme_epsilon_exits_2_with_one_line(capsys, epsilon):
    assert main(["verify", "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
