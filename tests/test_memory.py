import math

import numpy as np
import pytest

from mezofit.memory import (
    ConfigError,
    InfeasibleError,
    MemoryMode,
    ModelConfig,
    ParamCountMode,
    SweepAxis,
    SweepSpec,
    activation_bytes,
    bp_memory,
    max_dimension,
    memory_for_mode,
    memory_ratio,
    mezo_memory,
    param_elements,
    sweep,
)
from mezofit.model import LedgerMode, ToyTransformer

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


def spreadsheet_mezo_total(B, L, N, D, H, b, V, Lp):
    acts = B * L * N * D * (2 + 16 * b + (2 * b + 1) * N * H / D)
    return 12 * b * L * D * D + 2 * b * V * D + (Lp / L) * acts


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------

def test_param_elements_7b():
    # 12*32*4096^2 + 2*32000*4096, evaluated by hand
    assert param_elements(LLAMA7B) == 6_704_594_944


def test_param_elements_all_ones():
    cfg = ModelConfig(context_length=1, num_layers=1, hidden_dim=1,
                      num_heads=1, vocab_size=1)
    assert param_elements(cfg) == 14


def test_param_elements_generic_reduces_to_simplified():
    # kv_heads == num_heads and num_mlps * expansion_factor == 8
    assert (param_elements(LLAMA7B, ParamCountMode.GENERIC)
            == param_elements(LLAMA7B, ParamCountMode.SIMPLIFIED))
    cfg = ModelConfig(context_length=64, num_layers=3, hidden_dim=48,
                      num_heads=4, vocab_size=100, num_mlps=4,
                      expansion_factor=2.0)
    assert (param_elements(cfg, ParamCountMode.GENERIC)
            == param_elements(cfg, ParamCountMode.SIMPLIFIED))


def test_param_elements_generic_kv_heads():
    cfg = ModelConfig(context_length=8, num_layers=2, hidden_dim=16,
                      num_heads=4, kv_heads=2, vocab_size=10)
    # attention 2*(16^2) + 2*16*4*2 = 512 + 256 per layer; ffn 2*16*64 = 2048
    expected = 2 * (512 + 256 + 2048) + 2 * 10 * 16
    assert param_elements(cfg, ParamCountMode.GENERIC) == expected


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
    b = bp_memory(LLAMA7B)
    assert b.weights_bytes == 12_884_901_888.0
    assert b.gradients_bytes == 12_884_901_888.0
    assert b.embedding_head_bytes == 1_048_576_000.0
    assert b.activations_bytes == 30_601_641_984.0
    # component sum: 25_769_803_776 + 1_048_576_000 + 30_601_641_984
    assert b.total_bytes == 57_420_021_760.0
    assert b.mode is MemoryMode.BP


def test_bp_memory_7b_checkpointed():
    b = bp_memory(LLAMA7B, checkpointed=True)
    expected_acts = 30_601_641_984.0 * math.sqrt(32) / 32
    assert b.activations_bytes == pytest.approx(expected_acts, rel=1e-15)
    assert b.mode is MemoryMode.BP_CHECKPOINTED


def test_checkpointing_noop_for_single_layer():
    cfg = LLAMA7B.replace(num_layers=1)
    assert bp_memory(cfg, True).total_bytes == bp_memory(cfg, False).total_bytes


def test_mezo_memory_7b():
    m = mezo_memory(LLAMA7B)
    assert m.weights_bytes == 12_884_901_888.0
    assert m.gradients_bytes == 0.0
    assert m.embedding_head_bytes == 524_288_000.0
    assert m.activations_bytes == 956_301_312.0
    assert m.total_bytes == 14_365_491_200.0


def test_mezo_memory_stored_layers_extremes():
    none = mezo_memory(LLAMA7B.replace(stored_layers=0.0))
    assert none.activations_bytes == 0.0
    assert none.total_bytes == none.weights_bytes + none.embedding_head_bytes
    full = mezo_memory(LLAMA7B.replace(stored_layers=32.0))
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
        assert bp_memory(cfg).total_bytes == pytest.approx(
            spreadsheet_bp_total(*args), rel=1e-12)
        assert bp_memory(cfg, True).total_bytes == pytest.approx(
            spreadsheet_bp_total(*args, ckpt=True), rel=1e-12)
        assert mezo_memory(cfg).total_bytes == pytest.approx(
            spreadsheet_mezo_total(*args, Lp=cfg.stored_layers), rel=1e-12)


# ---------------------------------------------------------------------------
# ratio regimes
# ---------------------------------------------------------------------------

def test_ratio_moderate_context():
    assert memory_ratio(LLAMA7B.replace(context_length=256)) == pytest.approx(2.10, abs=0.01)


def test_ratio_deep_model():
    assert memory_ratio(LLAMA7B.replace(num_layers=100)) == pytest.approx(4.24, abs=0.01)


def test_ratio_deep_model_checkpointed():
    r = memory_ratio(LLAMA7B.replace(num_layers=100), checkpointed=True)
    assert r == pytest.approx(2.18, abs=0.01)


def test_checkpointed_layer_ratio_converges_to_two_from_above():
    # sqrt(L) recomputation leaves a 1/sqrt(L) tail: still ~2.023 at L=10^4,
    # inside [2.00, 2.02] only from L = 13,615 onward, limit exactly 2.
    values = [memory_ratio(LLAMA7B.replace(num_layers=L), checkpointed=True)
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
        plain = bp_memory(cfg).total_bytes
        ckpt = bp_memory(cfg, True).total_bytes
        if cfg.num_layers == 1:
            assert ckpt == plain
        else:
            assert ckpt < plain


def test_mezo_never_exceeds_bp():
    import random
    rng = random.Random(4242)
    for _ in range(300):
        cfg = _random_config(rng)
        assert mezo_memory(cfg).total_bytes <= bp_memory(cfg).total_bytes


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_ratio_monotone_in_context():
    values = tuple(2 ** k for k in range(16))  # 1 .. 32768
    points = sweep(SweepSpec(SweepAxis.N, values, LLAMA7B))
    # oracle: evaluate the ratio directly at every point
    direct = [memory_ratio(LLAMA7B.replace(context_length=v)) for v in values]
    assert [p.ratio for p in points] == direct
    assert all(b >= a for a, b in zip(direct, direct[1:]))
    assert 20 <= points[-1].ratio <= 32


def test_sweep_hidden_dim_starts_near_24x():
    points = sweep(SweepSpec(SweepAxis.D, (512, 1024, 4096), LLAMA7B))
    assert points[0].ratio == pytest.approx(23.8, abs=0.5)


def test_single_value_sweep_matches_direct_calls():
    points = sweep(SweepSpec(SweepAxis.L, (100,), LLAMA7B), checkpointed=True)
    assert len(points) == 1
    cfg = LLAMA7B.replace(num_layers=100)
    assert points[0].m_bp == bp_memory(cfg, True).total_bytes
    assert points[0].m_mezo == mezo_memory(cfg).total_bytes


def test_sweep_validation():
    with pytest.raises(ConfigError):
        SweepSpec(SweepAxis.N, (), LLAMA7B)
    with pytest.raises(ConfigError):
        SweepSpec(SweepAxis.N, (4, 2), LLAMA7B)
    with pytest.raises(ConfigError, match="4097"):
        # 4097 is not divisible by the 32 heads of the base config
        sweep(SweepSpec(SweepAxis.D, (4096, 4097), LLAMA7B))


# ---------------------------------------------------------------------------
# budget solver
# ---------------------------------------------------------------------------

def test_solver_fixed_point_at_known_config():
    budget = mezo_memory(LLAMA7B).total_bytes
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
        assert mezo_memory(cfg.replace(hidden_dim=got)).total_bytes <= budget
        assert mezo_memory(cfg.replace(hidden_dim=got + 32)).total_bytes > budget


def test_solver_layers_axis_matches_scan():
    cfg = LLAMA7B.replace(stored_layers=1.0)
    budget = bp_memory(cfg.replace(num_layers=77)).total_bytes * 1.001
    got = max_dimension(budget, cfg, SweepAxis.L, MemoryMode.BP)
    feasible = [l for l in range(1, 200)
                if bp_memory(cfg.replace(num_layers=l)).total_bytes <= budget]
    assert got == max(feasible) == 77


def test_solver_infeasible_budget():
    with pytest.raises(InfeasibleError):
        max_dimension(1.0, LLAMA7B, SweepAxis.D, MemoryMode.MEZO)


def test_solver_respects_stored_layers_floor():
    cfg = LLAMA7B.replace(stored_layers=13.12)
    # budget below memory at the minimum admissible L = ceil(13.12) = 14
    low = mezo_memory(cfg.replace(num_layers=14)).total_bytes - 1
    with pytest.raises(InfeasibleError):
        max_dimension(low, cfg, SweepAxis.L, MemoryMode.MEZO)
    got = max_dimension(mezo_memory(cfg.replace(num_layers=14)).total_bytes,
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
    with pytest.raises(ConfigError, match="context_length"):
        ModelConfig(**{**good, "context_length": 2.5})


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
    "param_elements": (lambda m: param_elements(SMALL, m), ParamCountMode),
    "forward": (_forward, LedgerMode),
    "max_dimension-mode": (lambda m: max_dimension(1e6, SMALL, SweepAxis.D, m), MemoryMode),
    "max_dimension-axis": (lambda a: max_dimension(1e6, SMALL, a, MemoryMode.BP),
                           (SweepAxis.D, SweepAxis.L)),
}


@pytest.mark.parametrize("call, member", [
    pytest.param(call, m, id=f"{name}-{m.value}")
    for name, (call, members) in CALLS.items() for m in members])
def test_a_mode_string_acts_as_its_enum_member(call, member):
    assert call(member.value) == call(member)
    with pytest.raises(ValueError):
        call("no-such-mode")
