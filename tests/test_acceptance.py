"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mezofit import verify
from mezofit.bench import steps_to_fraction_of_plateau
from mezofit.cli import main
from mezofit.memory import (
    MemoryMode,
    ModelConfig,
    SweepAxis,
    activation_bytes,
    bp_memory,
    max_dimension,
    memory_ratio,
    mezo_memory,
    param_elements,
)
from mezofit.model import LedgerMode, ToyTransformer
from mezofit.tasks import TaskKind, ToyTask
from mezofit.verify import (
    check_fd_gradient,
    check_quadratic_unbiasedness,
    check_restoration,
)
from test_bench import parse_csv

LLAMA7B = ModelConfig(context_length=2048, num_layers=32, hidden_dim=4096,
                      num_heads=32, vocab_size=32000, batch_size=1,
                      bytes_per_param=2.0, stored_layers=1.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: formula fidelity on the 7B reference configuration
# ---------------------------------------------------------------------------

def test_criterion_1_formula_fidelity():
    """BP and MeZO totals match an independent longhand evaluation to 1e-12."""
    # longhand: D^2 = 16777216; 24*b*L*D^2 = 24*2*32*16777216 = 25_769_803_776
    # 4*b*V*D = 4*2*32000*4096 = 1_048_576_000
    # A = 1*32*2048*4096*(2 + 32 + 5*2048*32/4096) = 268_435_456 * 114
    #   = 30_601_641_984
    hand_a = 268_435_456 * 114
    hand_bp = 25_769_803_776 + 1_048_576_000 + hand_a
    # 12*b*L*D^2 = 12_884_901_888; 2*b*V*D = 524_288_000; A/32 = 956_301_312
    hand_mezo = 12_884_901_888 + 524_288_000 + 956_301_312

    got_bp = bp_memory(LLAMA7B).total_bytes
    got_mezo = mezo_memory(LLAMA7B).total_bytes
    ok = (abs(got_bp - hand_bp) <= 1e-12 * hand_bp
          and abs(got_mezo - hand_mezo) <= 1e-12 * hand_mezo)
    report("criterion 1 (formula fidelity)", ok,
           f"BP {got_bp:.0f} vs hand {hand_bp}; MeZO {got_mezo:.0f} vs hand {hand_mezo}")
    assert got_bp == pytest.approx(hand_bp, rel=1e-12)
    assert got_mezo == pytest.approx(hand_mezo, rel=1e-12)


# ---------------------------------------------------------------------------
# criterion 2: ratio regimes
# ---------------------------------------------------------------------------

def test_criterion_2_ratio_regimes():
    """Savings-ratio brackets across context, depth, width, checkpointing."""
    checks = [
        ("ratio(N=256)", memory_ratio(LLAMA7B.replace(context_length=256)),
         1.9, 2.3),
        ("ratio(N=32768)", memory_ratio(LLAMA7B.replace(context_length=32768)),
         20.0, 32.0),
        ("ratio(L=100)", memory_ratio(LLAMA7B.replace(num_layers=100)),
         4.20, 4.30),
        ("ratio(L=10^4)", memory_ratio(LLAMA7B.replace(num_layers=10_000)),
         4.37, 4.38),
        ("ckpt ratio(L=100)",
         memory_ratio(LLAMA7B.replace(num_layers=100), checkpointed=True),
         2.16, 2.20),
        ("ckpt ratio(L=15000)",
         memory_ratio(LLAMA7B.replace(num_layers=15_000), checkpointed=True),
         2.00, 2.02),
        ("ratio(D=512)", memory_ratio(LLAMA7B.replace(hidden_dim=512)),
         23.0, 25.0),
        ("ckpt ratio(D=512)",
         memory_ratio(LLAMA7B.replace(hidden_dim=512), checkpointed=True),
         4.3, 5.5),
        ("ratio(D=2^20)", memory_ratio(LLAMA7B.replace(hidden_dim=2 ** 20)),
         2.0, 2.05),
    ]
    failures = [f"{name} = {value:.4f} not in [{lo}, {hi}]"
                for name, value, lo, hi in checks if not lo <= value <= hi]
    for name, value, lo, hi in checks:
        print(f"    {name} = {value:.4f}  bracket [{lo}, {hi}]"
              f"  {'ok' if lo <= value <= hi else 'OUT OF BRACKET'}")
    # The checkpointed ratio is 2 + a(sqrt(L) - 2)/(12bLD^2 + 2bVD + a), with
    # a = 956_301_312 the activation bytes of one layer. It converges to 2
    # like 1/sqrt(L) and enters [2.00, 2.02] at L = 13_615, so that bracket
    # is asserted at L = 15_000 above. At L = 10^4 the value is pinned to a
    # longhand evaluation instead; sqrt(10^4) = 100 keeps it in integers:
    # BP:   24*b*L*D^2 = 8_053_063_680_000; 4*b*V*D = 1_048_576_000;
    #       acts * sqrt(L)/L = 100*a = 95_630_131_200
    # MeZO: 12*b*L*D^2 = 4_026_531_840_000; 2*b*V*D = 524_288_000;
    #       acts * stored_layers/L = a = 956_301_312
    hand_bp = 8_053_063_680_000 + 1_048_576_000 + 95_630_131_200
    hand_mezo = 4_026_531_840_000 + 524_288_000 + 956_301_312
    hand_ckpt = hand_bp / hand_mezo
    got_ckpt = memory_ratio(LLAMA7B.replace(num_layers=10_000), checkpointed=True)
    ckpt_ok = got_ckpt == pytest.approx(hand_ckpt, rel=1e-12)
    print(f"    ckpt ratio(L=10^4) = {got_ckpt:.10f}  hand {hand_ckpt:.10f}"
          f"  {'ok' if ckpt_ok else 'MISMATCH'}")
    if not ckpt_ok:
        failures.append(f"ckpt ratio(L=10^4) = {got_ckpt!r} vs hand {hand_ckpt!r}")
    report("criterion 2 (ratio regimes)", not failures,
           "all brackets hold" if not failures else "; ".join(failures))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 3: larger models under the same budget
# ---------------------------------------------------------------------------

def test_criterion_3_mezo_fits_larger_models():
    """Across 1000 random configs with stored_layers <= L/2, the MeZO-mode
    hidden-dim solution never yields fewer parameters than the BP-mode one,
    and MeZO total memory never exceeds BP's."""
    rng = random.Random(20240810)
    worse = 0
    for i in range(1000):
        H = rng.choice([1, 2, 4, 8, 16, 32])
        L = rng.randint(1, 64)
        cfg = ModelConfig(
            context_length=rng.randint(1, 4096),
            num_layers=L,
            hidden_dim=H * rng.randint(1, 64),
            num_heads=H,
            vocab_size=rng.randint(100, 50000),
            batch_size=rng.randint(1, 16),
            bytes_per_param=rng.choice([1.0, 2.0, 4.0]),
            stored_layers=rng.uniform(0, L / 2),
        )
        assert mezo_memory(cfg).total_bytes <= bp_memory(cfg).total_bytes
        # a budget feasible for BP at some width, then solve both modes
        budget = bp_memory(cfg.replace(hidden_dim=H * rng.randint(1, 128))
                           ).total_bytes * rng.uniform(1.0, 3.0)
        d_bp = max_dimension(budget, cfg, SweepAxis.D, MemoryMode.BP)
        d_mezo = max_dimension(budget, cfg, SweepAxis.D, MemoryMode.MEZO)
        p_bp = param_elements(cfg.replace(hidden_dim=d_bp))
        p_mezo = param_elements(cfg.replace(hidden_dim=d_mezo))
        if p_mezo < p_bp:
            worse += 1
    report("criterion 3 (larger models at equal budget)", worse == 0,
           f"{1000 - worse}/1000 random configs kept param(MeZO) >= param(BP)")
    assert worse == 0


# ---------------------------------------------------------------------------
# criterion 4: estimator correctness
# ---------------------------------------------------------------------------

# The battery's spec lives in mezofit.verify; each test below pins the values
# it reads there, so editing a constant fails the criterion.

def test_criterion_4_restoration_bitwise():
    assert verify.RESTORATION_SEEDS == 1000
    r = check_restoration(dim=64, epsilon=1e-3, seed=0)
    report("criterion 4a (bitwise restoration)", r.passed, r.detail)
    assert r.passed, r.detail


def test_criterion_4_quadratic_unbiasedness():
    # >= 10^4 directions as specified; 1.2e5 keeps the Monte-Carlo error
    # well inside the 2% tolerance at dim 6
    assert (verify.QUADRATIC_DIM, verify.QUADRATIC_TOL) == (6, 0.02)
    r = check_quadratic_unbiasedness(directions=120_000, seed=0)
    report("criterion 4b (quadratic unbiasedness)", r.passed, r.detail)
    assert r.passed, r.detail


def test_criterion_4_finite_difference_gradients():
    # toy instance D=16, L=2, H=4, V=32, N=8; 200 random coordinates
    assert (verify.FD_COORDS, verify.FD_STEP, verify.FD_TOL) == (200, 1e-5, 1e-5)
    r = check_fd_gradient(seed=0)
    report("criterion 4c (finite-difference agreement)", r.passed, r.detail)
    assert r.passed, r.detail


# ---------------------------------------------------------------------------
# criterion 5: activation scaling
# ---------------------------------------------------------------------------

def test_criterion_5_activation_scaling():
    # Each law is read off the arrays the BP cache holds for backward, or off
    # the measured tracemalloc peak of a MeZO forward, which keeps nothing.
    base_cfg = ModelConfig(context_length=8, num_layers=4, hidden_dim=16,
                           num_heads=4, vocab_size=32, batch_size=2,
                           stored_layers=1.0)
    cfgs = dict(base=base_cfg, n2=base_cfg.replace(context_length=16),
                d2=base_cfg.replace(hidden_dim=32))
    groups = dict(scores=("probs",), attn=("h", "q4", "k4", "v4", "ctx"),
                  ffn=("h2", "u", "a"))
    sizes, fits = {}, {}
    for name, cfg in cfgs.items():
        model = ToyTransformer(cfg)
        tokens = np.random.default_rng(0).integers(0, 32, size=(2, cfg.context_length))
        cache = model.forward(model.init_params(0), tokens, LedgerMode.BP)[1]
        sizes[name] = {g: sum(cache["layers"][0][k].size for k in keys)
                       for g, keys in groups.items()}
        nbytes = (sum(a.nbytes for c in cache["layers"] for a in c.values())
                  + cache["x_f"].nbytes + cache["hf"].nbytes)
        fits[name] = (nbytes, activation_bytes(cfg.replace(bytes_per_param=8.0)))

    ratio = lambda name, g: sizes[name][g] / sizes["base"][g]
    n_laws = ratio("n2", "scores") == 4 and ratio("n2", "attn") == ratio("n2", "ffn") == 2
    d_laws = ratio("d2", "scores") == 1 and ratio("d2", "attn") == ratio("d2", "ffn") == 2
    within = all(got <= bound for got, bound in fits.values())

    model = ToyTransformer(base_cfg)
    params, tokens = model.init_params(0), np.random.default_rng(0).integers(0, 32, size=(2, 8))
    model.forward(params, tokens)  # warm up
    tracemalloc.start()
    try:
        model.forward(params, tokens)
        mezo_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_layer = fits["base"][0] / base_cfg.num_layers
    retained_ok = mezo_peak <= per_layer

    ok = n_laws and d_laws and within and retained_ok
    report("criterion 5 (activation scaling)", ok,
           f"per layer, scores x4 and attention/FFN x2 on 2N: {n_laws}; scores x1 and "
           f"attention/FFN x2 on 2D: {d_laws}; BP cache <= activation_bytes at 8 B: "
           + ", ".join(f"{name} {got:,} <= {bound:,.0f}" for name, (got, bound) in fits.items())
           + f"; MeZO forward peak {mezo_peak:,} B <= BP cache / L = {per_layer:,.0f} B")
    assert ok


# ---------------------------------------------------------------------------
# criteria 6 and 7: bundled matched-budget plan
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Run the bundled plan twice through the CLI (shared by criteria 6/7)."""
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"desk_{tag}")
        code = main(["train", "--plan", "desk", "--out", str(out)])
        assert code == 0
        dirs.append(out)
    return dirs


def test_criterion_6_crossover_shape(desk_runs):
    """The larger MeZO model's plateau beats the smaller BP model's, while
    BP reaches 90% of its own plateau in fewer steps."""
    records = parse_csv((desk_runs[0] / "records.csv").read_text())
    summary = json.loads((desk_runs[0] / "summary.json").read_text())
    best = {m: summary["methods"][m]["best_learning_rate"] for m in ("bp", "mezo")}
    curves = {m: [r for r in records if r.method == m and r.learning_rate == best[m]]
              for m in ("bp", "mezo")}
    plateau = {m: curves[m][-1].running_max_accuracy for m in ("bp", "mezo")}
    to90 = {m: steps_to_fraction_of_plateau(curves[m], 0.9) for m in ("bp", "mezo")}

    ordering = plateau["mezo"] >= plateau["bp"]
    speed = to90["bp"] < to90["mezo"]
    report("criterion 6 (crossover shape)", ordering and speed,
           f"plateau mezo {plateau['mezo']:.4f} vs bp {plateau['bp']:.4f}; "
           f"90%-of-plateau at step bp {to90['bp']} vs mezo {to90['mezo']}")
    assert ordering, plateau
    assert speed, to90


def test_criterion_7_train_determinism(desk_runs):
    """Byte-identical CSVs across runs once wall-clock columns are excluded."""
    texts = [(d / "records.csv").read_text() for d in desk_runs]

    def mask_wall_clock(text: str) -> str:
        lines = text.split("\n")
        out = [lines[0]]
        for line in lines[1:]:
            if not line:
                out.append(line)
                continue
            cols = line.split(",")
            cols[3] = "WALL"
            out.append(",".join(cols))
        return "\n".join(out)

    identical = mask_wall_clock(texts[0]) == mask_wall_clock(texts[1])
    report("criterion 7 (determinism)", identical,
           "records byte-identical outside the wall-clock column")
    assert identical
    assert texts[0] != texts[1]  # wall clock itself differs between runs
