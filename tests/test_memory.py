import dataclasses
import json
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mezofit.memory import (
    AXIS_FIELD,
    ConfigError,
    InfeasibleError,
    MemoryMode,
    ModelConfig,
    SweepAxis,
    activation_bytes,
    max_dimension,
    memory_for_mode,
    param_elements,
    sweep,
)
from mezofit.model import LedgerMode, ToyTransformer
from mezofit.zo import ZOConfig

# The 7B-class reference configuration used throughout.
LLAMA7B = ModelConfig(context_length=2048, num_layers=32, hidden_dim=4096,
                      num_heads=32, vocab_size=32000, batch_size=1,
                      bytes_per_param=2.0, stored_layers=1.0)


def spreadsheet_bp_total(B, L, N, D, H, b, V, ckpt=False):
    # Independent re-derivation, kept deliberately longhand.
    acts = B * L * N * D * (2 + 16 * b + (2 * b + 1) * N * H / D)
    if ckpt:
        acts = acts * math.sqrt(L) / L
    return 24 * b * L * D * D + 4 * b * V * D + acts


def bp_over_mezo(cfg, bp_mode=MemoryMode.BP):
    """The paper's savings ratio: the BP total over the MeZO total."""
    return (memory_for_mode(cfg, bp_mode).total_bytes
            / memory_for_mode(cfg, MemoryMode.MEZO).total_bytes)


def spreadsheet_mezo_total(B, L, N, D, H, b, V, Lp):
    acts = B * L * N * D * (2 + 16 * b + (2 * b + 1) * N * H / D)
    return 12 * b * L * D * D + 2 * b * V * D + (Lp / L) * acts


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------

def test_param_elements_7b():
    # 12*32*4096^2 + 2*32000*4096, evaluated by hand
    assert param_elements(LLAMA7B) == 6_704_594_944


def test_param_elements_llama2_7b_longhand():
    # a gated FFN: three 4096 x 11008 matrices per layer, e = 11008/4096
    llama2 = LLAMA7B.replace(num_mlps=3, expansion_factor=2.6875)
    # 32*(2*4096^2 + 2*4096^2 + 3*4096*11008) + 2*32000*4096
    assert param_elements(llama2) == 6_738_149_376
    # plus 32 layers' two norm gains and the final one, 65*4096 = 266,240, is
    # Llama 2 7B's published count
    assert param_elements(llama2) + 65 * 4096 == 6_738_415_616
    # grouped-query keys and values, 8 of 32 heads: 32*(2 + 2/4)*4096^2 fewer
    assert param_elements(llama2.replace(kv_heads=8)) == 5_932_843_008


def test_param_elements_all_ones():
    cfg = ModelConfig(context_length=1, num_layers=1, hidden_dim=1,
                      num_heads=1, vocab_size=1)
    assert param_elements(cfg) == 14


# ---------------------------------------------------------------------------
# activation and total-memory formulas
# ---------------------------------------------------------------------------

def test_activation_bytes_7b():
    # inner factor 2 + 32 + 5*2048*32/4096 = 114; B*L*N*D = 268435456
    assert activation_bytes(LLAMA7B) == 30_601_641_984.0


def test_activation_bytes_all_ones():
    cfg = ModelConfig(context_length=1, num_layers=1, hidden_dim=1,
                      num_heads=1, vocab_size=1, bytes_per_param=1.0,
                      stored_layers=1.0)
    assert activation_bytes(cfg) == 21.0


def test_bp_memory_7b():
    b = memory_for_mode(LLAMA7B, MemoryMode.BP)
    assert b.weights_bytes == 12_884_901_888.0
    assert b.gradients_bytes == 12_884_901_888.0
    assert b.embedding_head_bytes == 1_048_576_000.0
    assert b.activations_bytes == 30_601_641_984.0
    # component sum: 25_769_803_776 + 1_048_576_000 + 30_601_641_984
    assert b.total_bytes == 57_420_021_760.0
    assert b.mode is MemoryMode.BP


def test_bp_memory_7b_checkpointed():
    b = memory_for_mode(LLAMA7B, MemoryMode.BP_CHECKPOINTED)
    expected_acts = 30_601_641_984.0 * math.sqrt(32) / 32
    assert b.activations_bytes == pytest.approx(expected_acts, rel=1e-15)
    assert b.mode is MemoryMode.BP_CHECKPOINTED


def test_checkpointing_noop_for_single_layer():
    cfg = LLAMA7B.replace(num_layers=1)
    assert (memory_for_mode(cfg, MemoryMode.BP_CHECKPOINTED).total_bytes
            == memory_for_mode(cfg, MemoryMode.BP).total_bytes)


def test_mezo_memory_7b():
    m = memory_for_mode(LLAMA7B, MemoryMode.MEZO)
    assert m.weights_bytes == 12_884_901_888.0
    assert m.gradients_bytes == 0.0
    assert m.embedding_head_bytes == 524_288_000.0
    assert m.activations_bytes == 956_301_312.0
    assert m.total_bytes == 14_365_491_200.0


def test_mezo_memory_stored_layers_extremes():
    none = memory_for_mode(LLAMA7B.replace(stored_layers=0.0), MemoryMode.MEZO)
    assert none.activations_bytes == 0.0
    assert none.total_bytes == none.weights_bytes + none.embedding_head_bytes
    full = memory_for_mode(LLAMA7B.replace(stored_layers=32.0), MemoryMode.MEZO)
    assert full.activations_bytes == activation_bytes(LLAMA7B)


def test_totals_match_spreadsheet_on_random_configs():
    import random
    rng = random.Random(7)
    for _ in range(300):
        H = rng.choice([1, 2, 4, 8, 16])
        cfg = ModelConfig(
            context_length=rng.randint(1, 8192),
            num_layers=rng.randint(1, 200),
            hidden_dim=H * rng.randint(1, 256),
            num_heads=H,
            vocab_size=rng.randint(1, 64000),
            batch_size=rng.randint(1, 64),
            bytes_per_param=rng.choice([0.5, 1.0, 2.0, 4.0]),
            stored_layers=0.0,
        )
        cfg = cfg.replace(stored_layers=rng.uniform(0, cfg.num_layers))
        args = (cfg.batch_size, cfg.num_layers, cfg.context_length,
                cfg.hidden_dim, cfg.num_heads, cfg.bytes_per_param,
                cfg.vocab_size)
        assert memory_for_mode(cfg, MemoryMode.BP).total_bytes == pytest.approx(
            spreadsheet_bp_total(*args), rel=1e-12)
        assert memory_for_mode(cfg, MemoryMode.BP_CHECKPOINTED).total_bytes == pytest.approx(
            spreadsheet_bp_total(*args, ckpt=True), rel=1e-12)
        assert memory_for_mode(cfg, MemoryMode.MEZO).total_bytes == pytest.approx(
            spreadsheet_mezo_total(*args, Lp=cfg.stored_layers), rel=1e-12)


def frozen_12_16_breakdown(cfg, mode):
    """The totals as they were before kv_heads, num_mlps and expansion_factor
    entered them: 12*b*L*D^2 weights and a 16*b activation bracket. Kept as
    written then, operation order and overflow guards included."""
    B, N, D, H, b = (cfg.batch_size, cfg.context_length, cfg.hidden_dim, cfg.num_heads,
                     cfg.bytes_per_param)
    L, V = cfg.num_layers, cfg.vocab_size
    layers = {MemoryMode.BP: L, MemoryMode.BP_CHECKPOINTED: math.sqrt(L),
              MemoryMode.MEZO: cfg.stored_layers}[mode]
    elements = B * N * D
    if elements > sys.float_info.max:
        acts = math.inf if layers else 0.0
    elif elements * layers > sys.float_info.max:
        acts = math.inf
    else:
        acts = elements * layers * (2 + 16 * b + (2 * b + 1) * N * H / D)
    bp = mode is not MemoryMode.MEZO
    weights = 12 * b * L * D * D
    gradients = weights if bp else 0.0
    embed_head = (4 if bp else 2) * b * V * D
    return weights, gradients, embed_head, acts, weights + gradients + embed_head + acts


def test_default_knob_totals_match_the_frozen_12_16_formula_bit_for_bit():
    # 20,000 valid random configs per mode at the default kv_heads, num_mlps
    # and expansion_factor, with sizes from 1 up to near the largest float
    rng = random.Random(16)
    mismatches, checked = [], 0
    while checked < 20_000:
        scale = rng.choice((4, 16, 150, 308))
        size = lambda: int(10 ** rng.uniform(0, scale))
        L, H = size(), rng.choice((1, 2, 3, 32, size()))
        fields = dict(context_length=size(), num_layers=L, hidden_dim=H * size(), num_heads=H,
                      vocab_size=size(), batch_size=size(),
                      bytes_per_param=rng.choice((1.0, 2.0, 4.0, 10 ** rng.uniform(-3, scale))),
                      stored_layers=rng.choice((0.0, 1.0, rng.uniform(0, 1) * L)))
        try:
            cfg = ModelConfig(**fields)
        except ConfigError:  # a field past the largest float, or stored_layers > L
            continue
        checked += 1
        for mode in MemoryMode:
            m = memory_for_mode(cfg, mode)
            got = (m.weights_bytes, m.gradients_bytes, m.embedding_head_bytes,
                   m.activations_bytes, m.total_bytes)
            if repr(got) != repr(frozen_12_16_breakdown(cfg, mode)):  # NaN- and sign-exact
                mismatches.append((fields, mode))
    assert mismatches == []


# ---------------------------------------------------------------------------
# ratio regimes
# ---------------------------------------------------------------------------

def test_ratio_moderate_context():
    assert bp_over_mezo(LLAMA7B.replace(context_length=256)) == pytest.approx(2.10, abs=0.01)


def test_ratio_deep_model():
    assert bp_over_mezo(LLAMA7B.replace(num_layers=100)) == pytest.approx(4.24, abs=0.01)


def test_ratio_deep_model_checkpointed():
    r = bp_over_mezo(LLAMA7B.replace(num_layers=100), MemoryMode.BP_CHECKPOINTED)
    assert r == pytest.approx(2.18, abs=0.01)


def test_checkpointed_layer_ratio_converges_to_two_from_above():
    # sqrt(L) recomputation leaves a 1/sqrt(L) tail: still ~2.023 at L=10^4,
    # inside [2.00, 2.02] only from L = 13,615 onward, limit exactly 2.
    values = [bp_over_mezo(LLAMA7B.replace(num_layers=L), MemoryMode.BP_CHECKPOINTED)
              for L in (10_000, 15_000, 100_000, 1_000_000)]
    assert values[0] == pytest.approx(2.0233, abs=5e-4)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 2.0 for v in values)
    assert 2.00 <= values[1] <= 2.02
    assert values[-1] == pytest.approx(2.0, abs=2.5e-3)


# ---------------------------------------------------------------------------
# orderings and monotonicity
# ---------------------------------------------------------------------------

def _random_config(rng):
    H = rng.choice([1, 2, 4, 8, 16, 32])
    L = rng.randint(1, 128)
    return ModelConfig(
        context_length=rng.randint(1, 4096),
        num_layers=L,
        hidden_dim=H * rng.randint(1, 128),
        num_heads=H,
        vocab_size=rng.randint(1, 50000),
        batch_size=rng.randint(1, 32),
        bytes_per_param=rng.choice([1.0, 2.0, 4.0]),
        # strictly positive so totals stay strictly increasing in N and B
        stored_layers=rng.uniform(1e-6, L),
    )


def test_total_memory_strictly_increasing_per_field():
    import random
    rng = random.Random(20240817)
    bumps = {
        "context_length": lambda c: c.replace(context_length=c.context_length + 1),
        "num_layers": lambda c: c.replace(num_layers=c.num_layers + 1),
        "hidden_dim": lambda c: c.replace(hidden_dim=c.hidden_dim + c.num_heads),
        "batch_size": lambda c: c.replace(batch_size=c.batch_size + 1),
        "bytes_per_param": lambda c: c.replace(bytes_per_param=c.bytes_per_param * 1.25),
    }
    for _ in range(200):
        cfg = _random_config(rng)
        for bump in bumps.values():
            bigger = bump(cfg)
            for mode in MemoryMode:
                assert (memory_for_mode(bigger, mode).total_bytes
                        > memory_for_mode(cfg, mode).total_bytes)


def test_checkpointing_never_increases_memory():
    import random
    rng = random.Random(99)
    for _ in range(200):
        cfg = _random_config(rng)
        plain = memory_for_mode(cfg, MemoryMode.BP).total_bytes
        ckpt = memory_for_mode(cfg, MemoryMode.BP_CHECKPOINTED).total_bytes
        if cfg.num_layers == 1:
            assert ckpt == plain
        else:
            assert ckpt < plain


def test_mezo_never_exceeds_bp():
    import random
    rng = random.Random(4242)
    for _ in range(300):
        cfg = _random_config(rng)
        assert (memory_for_mode(cfg, MemoryMode.MEZO).total_bytes
                <= memory_for_mode(cfg, MemoryMode.BP).total_bytes)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_ratio_monotone_in_context():
    values = tuple(2 ** k for k in range(16))  # 1 .. 32768
    points = sweep(LLAMA7B, SweepAxis.N, values)
    # oracle: evaluate the ratio directly at every point
    direct = [bp_over_mezo(LLAMA7B.replace(context_length=v)) for v in values]
    assert [p.ratio for p in points] == direct
    assert all(b >= a for a, b in zip(direct, direct[1:]))
    assert 20 <= points[-1].ratio <= 32


def test_sweep_hidden_dim_starts_near_24x():
    points = sweep(LLAMA7B, SweepAxis.D, (512, 1024, 4096))
    assert points[0].ratio == pytest.approx(23.8, abs=0.5)


def test_single_value_sweep_matches_direct_calls():
    points = sweep(LLAMA7B, SweepAxis.L, (100,), checkpointed=True)
    assert len(points) == 1
    cfg = LLAMA7B.replace(num_layers=100)
    assert points[0].m_bp == memory_for_mode(cfg, MemoryMode.BP_CHECKPOINTED).total_bytes
    assert points[0].m_mezo == memory_for_mode(cfg, MemoryMode.MEZO).total_bytes


def test_sweep_validation():
    for values, match in (((), "non-empty"), ((0, 2), "positive"), ((4, 2), "increasing"),
                          ((4, 4), "increasing")):
        with pytest.raises(ConfigError, match=match):
            sweep(LLAMA7B, SweepAxis.N, values)
    for axis in (SweepAxis.D, "d"):
        with pytest.raises(ConfigError, match="4097 for hidden_dim"):
            # 4097 is not divisible by the 32 heads of the base config
            sweep(LLAMA7B, axis, (4096, 4097))


# ---------------------------------------------------------------------------
# budget solver
# ---------------------------------------------------------------------------

def test_solver_fixed_point_at_known_config():
    budget = memory_for_mode(LLAMA7B, MemoryMode.MEZO).total_bytes
    assert max_dimension(budget, LLAMA7B, SweepAxis.D, MemoryMode.MEZO) == 4096


def _scan_max_hidden_dim(cfg, budget, mode):
    feasible = [d for d in range(32, 16384 + 32, 32)
                if memory_for_mode(cfg.replace(hidden_dim=d), mode).total_bytes <= budget]
    return max(feasible) if feasible else None


def test_solver_matches_linear_scan_17gb_case():
    # N=1024, B=8, stored_layers/L = 0.41: the context-squared score term is
    # constant in D and already ~17.7e9 at D=32, so 17 GB is infeasible on
    # the whole axis; solver and brute-force scan must agree on that.
    cfg = LLAMA7B.replace(context_length=1024, batch_size=8,
                          stored_layers=0.41 * 32)
    assert _scan_max_hidden_dim(cfg, 17e9, MemoryMode.MEZO) is None
    with pytest.raises(InfeasibleError):
        max_dimension(17e9, cfg, SweepAxis.D, MemoryMode.MEZO)

    for budget in (20e9, 25e9, 46e9):
        got = max_dimension(budget, cfg, SweepAxis.D, MemoryMode.MEZO)
        assert got == _scan_max_hidden_dim(cfg, budget, MemoryMode.MEZO)
        assert memory_for_mode(cfg.replace(hidden_dim=got), MemoryMode.MEZO).total_bytes <= budget
        bigger = cfg.replace(hidden_dim=got + 32)
        assert memory_for_mode(bigger, MemoryMode.MEZO).total_bytes > budget


def test_solver_layers_axis_matches_scan():
    cfg = LLAMA7B.replace(stored_layers=1.0)
    budget = memory_for_mode(cfg.replace(num_layers=77), MemoryMode.BP).total_bytes * 1.001
    got = max_dimension(budget, cfg, SweepAxis.L, MemoryMode.BP)
    feasible = [l for l in range(1, 200)
                if memory_for_mode(cfg.replace(num_layers=l), MemoryMode.BP).total_bytes <= budget]
    assert got == max(feasible) == 77


@pytest.mark.parametrize("axis", [SweepAxis.D, SweepAxis.L])
@pytest.mark.parametrize("mode", [MemoryMode.BP, MemoryMode.MEZO])
def test_solver_brackets_a_budget_far_beyond_any_model(axis, mode):
    # 1e30 B holds about 1e21 LLaMA-7B layers: no fixed cap on the unit
    # count may stand in for the budget
    unit = LLAMA7B.num_heads if axis is SweepAxis.D else 1
    got = max_dimension(1e30, LLAMA7B, axis, mode)
    total = lambda v: memory_for_mode(LLAMA7B.replace(**{AXIS_FIELD[axis]: v}), mode).total_bytes
    assert total(got) <= 1e30 < total(got + unit)


@pytest.mark.parametrize("budget", [1e300, 1.7e308])
def test_checkpointed_solver_fits_at_least_the_plain_layers_near_the_largest_float(budget):
    # checkpointing never adds memory, so under one budget it fits at least
    # as many layers as plain BP; an activation term that overflows to inf
    # before its division used to answer ~1e199 layers against BP's ~1e291
    got = max_dimension(budget, LLAMA7B, SweepAxis.L, MemoryMode.BP_CHECKPOINTED)
    total = lambda l: memory_for_mode(LLAMA7B.replace(num_layers=l),
                                      MemoryMode.BP_CHECKPOINTED).total_bytes
    assert total(got) <= budget < total(got + 1)
    assert got >= max_dimension(budget, LLAMA7B, SweepAxis.L, MemoryMode.BP)


@pytest.mark.parametrize("mode, batch_size", [(MemoryMode.MEZO, 1), (MemoryMode.MEZO, 64),
                                              (MemoryMode.BP_CHECKPOINTED, 1),
                                              (MemoryMode.BP_CHECKPOINTED, 128)])
def test_solver_fits_the_layers_whose_activations_overflow_before_scaling(mode, batch_size):
    # B*L*N*D*(...) overflows near L = 1.9e299 on LLaMA-7B, before MeZO's
    # stored_layers/L or checkpointing's sqrt(L)/L shrinks it; the weights
    # alone allow about 4.2e299 (mezo) and 2.1e299 (bp-ckpt) layers. With the
    # larger batches the bracket's next layer count takes the exact int
    # B*L*N*D itself past the largest float.
    cfg = LLAMA7B.replace(batch_size=batch_size)
    got = max_dimension(1.7e308, cfg, SweepAxis.L, mode)
    total = lambda l: memory_for_mode(cfg.replace(num_layers=l), mode).total_bytes
    assert total(got) <= 1.7e308 < total(got + 1) < math.inf


def test_activation_bytes_past_the_largest_float_is_inf():
    # B*N*D = 2^23 on LLaMA-7B: 2^1001 layers make the int element count
    # 2^1024, and 2^1000 layers a count that converts but overflows the product
    assert activation_bytes(LLAMA7B, 2 ** 1001) == math.inf
    assert activation_bytes(LLAMA7B, 2 ** 1000) == math.inf


def test_each_mode_keeps_activation_bytes_over_its_layers():
    # one formula: the activation term is activation_bytes over L, sqrt(L)
    # or stored_layers layers, bit for bit, for layer counts of any size
    import random
    rng = random.Random(14)
    for _ in range(2000):
        H = rng.choice([1, 2, 4, 8, 16])
        L = rng.randint(1, 10 ** rng.randint(1, 300))
        cfg = ModelConfig(context_length=rng.randint(1, 8192), num_layers=L,
                          hidden_dim=H * rng.randint(1, 256), num_heads=H,
                          vocab_size=rng.randint(1, 64000), batch_size=rng.randint(1, 128),
                          bytes_per_param=rng.choice([0.5, 1.0, 2.0, 4.0]),
                          stored_layers=rng.uniform(0, min(L, 64)))
        for mode, kept in ((MemoryMode.BP, L), (MemoryMode.BP_CHECKPOINTED, math.sqrt(L)),
                           (MemoryMode.MEZO, cfg.stored_layers)):
            assert memory_for_mode(cfg, mode).activations_bytes == activation_bytes(cfg, kept)


def test_mezo_activation_term_does_not_depend_on_num_layers():
    cfg = LLAMA7B.replace(context_length=1000, stored_layers=0.7)
    acts = {memory_for_mode(cfg.replace(num_layers=L), MemoryMode.MEZO).activations_bytes
            for L in (1, 3, 1000, 10 ** 300)}
    assert len(acts) == 1


@pytest.mark.parametrize("mode", [m.value for m in MemoryMode])
def test_a_batch_past_the_largest_float_totals_inf(mode):
    # B*N*D is an int past the largest float; in bp-ckpt and mezo it meets a
    # float layer count
    cfg = LLAMA7B.replace(batch_size=10 ** 305)
    assert memory_for_mode(cfg, mode).total_bytes == math.inf


def test_mezo_storing_no_layer_keeps_no_activations_at_any_batch():
    m = memory_for_mode(LLAMA7B.replace(stored_layers=0.0, batch_size=10 ** 305), MemoryMode.MEZO)
    assert m.activations_bytes == 0.0
    assert m.total_bytes == m.weights_bytes + m.embedding_head_bytes


def test_config_rejects_an_integer_past_the_largest_float():
    good = dict(context_length=8, num_layers=2, hidden_dim=16, num_heads=4,
                vocab_size=10)
    for field in ("context_length", "num_layers", "hidden_dim", "num_heads", "vocab_size",
                  "kv_heads", "num_mlps", "batch_size"):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{**good, field: 10 ** 309})


def test_solver_infeasible_budget():
    with pytest.raises(InfeasibleError):
        max_dimension(1.0, LLAMA7B, SweepAxis.D, MemoryMode.MEZO)


@pytest.mark.parametrize("axis", [SweepAxis.D, SweepAxis.L])
@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_solver_refuses_a_budget_that_is_not_finite(budget, axis):
    # a NaN budget once solved to the smallest admissible width, and an
    # infinite one blamed hidden_dim
    with pytest.raises(ConfigError, match=rf"^budget must be a finite number of bytes, "
                                          rf"got {re.escape(repr(budget))}$"):
        max_dimension(budget, LLAMA7B, axis, MemoryMode.BP)


def test_solver_respects_stored_layers_floor():
    cfg = LLAMA7B.replace(stored_layers=13.12)
    # budget below memory at the minimum admissible L = ceil(13.12) = 14
    low = memory_for_mode(cfg.replace(num_layers=14), MemoryMode.MEZO).total_bytes - 1
    with pytest.raises(InfeasibleError):
        max_dimension(low, cfg, SweepAxis.L, MemoryMode.MEZO)
    got = max_dimension(memory_for_mode(cfg.replace(num_layers=14), MemoryMode.MEZO).total_bytes,
                        cfg, SweepAxis.L, MemoryMode.MEZO)
    assert got == 14


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    good = dict(context_length=8, num_layers=2, hidden_dim=16, num_heads=4,
                vocab_size=10)
    with pytest.raises(ConfigError, match="num_layers"):
        ModelConfig(**{**good, "num_layers": 0})
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(**{**good, "hidden_dim": 18})
    with pytest.raises(ConfigError, match="stored_layers"):
        ModelConfig(**good, stored_layers=3.0)
    with pytest.raises(ConfigError, match="bytes_per_param"):
        ModelConfig(**good, bytes_per_param=0.0)
    for field in ("bytes_per_param", "expansion_factor"):
        for value in (math.inf, math.nan, -1.0, 10 ** 400):
            with pytest.raises(ConfigError, match=field):
                ModelConfig(**good, **{field: value})
    # kv_heads must divide num_heads = 4, so nothing above it either
    for kv_heads in (3, 8, 64):
        with pytest.raises(ConfigError, match="kv_heads must divide num_heads"):
            ModelConfig(**good, kv_heads=kv_heads)
    assert ModelConfig(**good, kv_heads=2).kv_heads == 2
    with pytest.raises(ConfigError, match="context_length"):
        ModelConfig(**{**good, "context_length": 2.5})


HUGE = 10 ** 5000  # more digits than repr will write


@pytest.mark.parametrize("cls, field, value", [
    (ModelConfig, "expansion_factor", HUGE),
    *((ModelConfig, f, -HUGE) for f in ("stored_layers", "bytes_per_param", "num_layers",
                                        "hidden_dim")),
    (ZOConfig, "num_perturbations", HUGE), (ZOConfig, "num_perturbations", -HUGE),
    (ZOConfig, "epsilon", HUGE), (ZOConfig, "epsilon", -HUGE), (ZOConfig, "learning_rate", -HUGE),
], ids=lambda x: "huge" if x == HUGE else "-huge" if x == -HUGE else getattr(x, "__name__", x))
def test_config_messages_name_the_field_of_an_int_too_long_to_print(cls, field, value):
    make = LLAMA7B.replace if cls is ModelConfig else ZOConfig
    with pytest.raises(ConfigError, match=f"^{field} must .* integer of 16610 bits"):
        make(**{field: value})


@pytest.mark.parametrize("value", [True, "1", None], ids=["bool", "str", "none"])
@pytest.mark.parametrize("cls, field", [
    *((ModelConfig, f) for f in ("bytes_per_param", "expansion_factor", "stored_layers")),
    *((ZOConfig, f) for f in ("epsilon", "learning_rate", "num_perturbations", "master_seed")),
], ids=lambda x: getattr(x, "__name__", x))
def test_config_fields_refuse_bools_strings_and_none(cls, field, value):
    make = LLAMA7B.replace if cls is ModelConfig else ZOConfig
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        make(**{field: value})


@pytest.mark.parametrize("real", [np.float32, Fraction], ids=["float32", "fraction"])
def test_model_config_stores_a_real_setting_of_any_type_as_its_float(real):
    # a float32 once met the largest float as a float32 (an overflow warning),
    # kept its own precision in the totals and, like a Fraction, broke json.dumps
    floats = dict(bytes_per_param=2.0, expansion_factor=2.5, stored_layers=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = LLAMA7B.replace(**{k: real(v) for k, v in floats.items()})
        json.dumps(dataclasses.asdict(cfg))
        assert all(type(getattr(cfg, k)) is float for k in floats)
        want = LLAMA7B.replace(**floats)
        assert cfg == want
        assert all(memory_for_mode(cfg, m) == memory_for_mode(want, m) for m in MemoryMode)


# ---------------------------------------------------------------------------
# modes given as plain strings
# ---------------------------------------------------------------------------

SMALL = ModelConfig(context_length=8, num_layers=2, hidden_dim=16, num_heads=2,
                    vocab_size=8, batch_size=2, expansion_factor=2.0)


def _forward(mode):
    model = ToyTransformer(SMALL)
    tokens = np.arange(16).reshape(2, 8) % SMALL.vocab_size
    logits, cache = model.forward(model.init_params(0), tokens, mode)
    return logits.tobytes(), None if cache is None else len(cache["layers"])


CALLS = {
    "memory_for_mode": (lambda m: memory_for_mode(SMALL, m), MemoryMode),
    "forward": (_forward, LedgerMode),
    "max_dimension-mode": (lambda m: max_dimension(1e6, SMALL, SweepAxis.D, m), MemoryMode),
    "max_dimension-axis": (lambda a: max_dimension(1e6, SMALL, a, MemoryMode.BP),
                           (SweepAxis.D, SweepAxis.L)),
    "sweep-axis": (lambda a: sweep(SMALL, a, (4, 8)), SweepAxis),
}


@pytest.mark.parametrize("call, member", [
    pytest.param(call, m, id=f"{name}-{m.value}")
    for name, (call, members) in CALLS.items() for m in members])
def test_a_mode_string_acts_as_its_enum_member(call, member):
    assert call(member.value) == call(member)
    with pytest.raises(ValueError):
        call("no-such-mode")
