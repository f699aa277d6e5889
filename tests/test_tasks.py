import hashlib

import numpy as np
import pytest

from mezofit.memory import ConfigError
from mezofit.tasks import (
    _SUCCESSOR_P,
    QMARK_TOKEN,
    SEP_TOKEN,
    TaskKind,
    ToyTask,
    _markov_table,
)
from mezofit.zo import splitmix64


def test_samples_are_deterministic():
    task = ToyTask(TaskKind.SEQUENCE_COPY, vocab_size=16, seq_len=9, seed=42)
    (t1,), (y1,) = task.batch((5,))
    (t2,), (y2,) = task.batch((5,))
    assert np.array_equal(t1, t2) and np.array_equal(y1, y2)
    (t3,), _ = task.batch((6,))
    assert not np.array_equal(t1, t3)


def test_train_and_eval_splits_are_disjoint():
    # pattern space 255^8: identical sequences across splits would mean the
    # index partition leaked, not a chance collision
    task = ToyTask(TaskKind.SEQUENCE_COPY, vocab_size=256, seq_len=17, seed=42)
    train = {task.batch((i,), "train")[0].tobytes() for i in range(200)}
    evald = {task.batch((i,), "eval")[0].tobytes() for i in range(200)}
    assert len(train & evald) == 0
    assert len(train) == len(evald) == 200


def test_sequence_copy_structure():
    task = ToyTask(TaskKind.SEQUENCE_COPY, vocab_size=16, seq_len=11, seed=0)
    (tokens,), (targets,) = task.batch((0,))
    p = 5
    assert tokens[p] == SEP_TOKEN
    assert np.array_equal(tokens[:p], tokens[p + 1:])
    assert np.all(tokens[:p] >= 1)
    assert np.array_equal(targets[p:-1], tokens[:p])
    assert np.all(targets[:p] == -1) and targets[-1] == -1


def test_next_token_follows_the_markov_table():
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=12, seq_len=32, seed=3)
    succ = _markov_table(task.seed, task.vocab_size)
    assert succ.shape == (12, 2)
    assert _SUCCESSOR_P.sum() == pytest.approx(1.0)
    (tokens,), (targets,) = task.batch((9,))
    for i in range(31):
        assert tokens[i + 1] in succ[tokens[i]]
        assert targets[i] == tokens[i + 1]
    assert targets[-1] == -1


def test_markov_table_is_shared_and_read_only():
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=12, seq_len=32, seed=3)
    succ = _markov_table(task.seed, task.vocab_size)
    other = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=12, seq_len=9, seed=3)
    assert _markov_table(other.seed, other.vocab_size) is succ  # built once per (seed, vocab)
    before = task.batch(range(8))
    for arr in (succ, _SUCCESSOR_P):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    after = task.batch(range(8))
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def _reference_next_token_sample(task, index):
    """A next-token sample built as the chain defines it: a fresh Philox per
    draw, the successor table rebuilt, successors picked by Generator.choice."""
    def philox(salt, idx):
        key = np.array([splitmix64(task.seed ^ salt), idx & ((1 << 64) - 1)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
    table = philox(0x6D61726B, 0)
    succ = np.array([table.permutation(task.vocab_size)[:2] for _ in range(task.vocab_size)])
    gen = philox(0x73616D70, index)
    tokens = [int(gen.integers(0, task.vocab_size))]
    for c in gen.choice(2, size=task.seq_len - 1, p=[0.9, 0.1]):
        tokens.append(int(succ[tokens[-1], c]))
    return np.array(tokens)


@pytest.mark.parametrize("seed", [0, 3, -2, (1 << 64) - 1])
def test_next_token_samples_equal_the_reference_construction(seed):
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=9, seq_len=12, seed=seed)
    for index in (0, 1, 17, 1 << 40):
        (tokens,), _ = task.batch((index,))
        assert np.array_equal(tokens, _reference_next_token_sample(task, index))


# sha256 of batch(range(40)) (tokens then targets, int64 little-endian),
# recorded when every sample built its own Philox and the next-token table
# was rebuilt per sample; the reused generators and memoised table must
# reproduce them exactly
GOLDEN_BATCHES = {
    (TaskKind.SEQUENCE_COPY, 16, 9, 42): (
        "0f64b8f7f2d11e2cc43c8edd41cb74f2141f76c8326cc7e366348ebe420071ed",
        "b0267b69d378a80c33941a7755dcd2f35b656627a1f4b8b29ccc9119d10e0195"),
    (TaskKind.NEXT_TOKEN_SYNTHETIC, 12, 32, 3): (
        "f1cd9f7f652c8b027bc0a3e771a0a92779bed1d73e86c6806ed2ef1a90e08307",
        "ed235ffd803131a5b2b59932e72b3623b55929abc840becd61bd1a3e17e287c8"),
    (TaskKind.BINARY_QA_SYNTHETIC, 32, 10, 7): (
        "4ee25053ca7fa3b9c730409b40c05f128c6da788aa21c67e5da616465ca38d54",
        "f9eac201ae6cf2899f308951ce7abeaa2d1f20b90506fdabdd2bbd35cef24a39"),
}


@pytest.mark.parametrize("spec", GOLDEN_BATCHES, ids=lambda spec: spec[0].value)
def test_batches_match_golden_hashes(spec):
    task = ToyTask(*spec)
    for split, want in zip(("train", "eval"), GOLDEN_BATCHES[spec]):
        tokens, targets = task.batch(range(40), split)
        got = hashlib.sha256(tokens.astype("<i8").tobytes()
                             + targets.astype("<i8").tobytes()).hexdigest()
        assert got == want, split


# sha256 of batch(indices) as above, recorded when every sample was built on
# its own and the batch stacked them: the train-matched step's shape, the
# step-mid task, and duplicate, unordered indices
GOLDEN_INDEXED_BATCHES = {
    (TaskKind.NEXT_TOKEN_SYNTHETIC, 8, 8, 0, range(6384, 6400)): (
        "d10c752ee8198f9a373d44673fdffbd1b0168e4266148085465c54ff31760fe4",
        "cf7b42a18d1bdb5eaf5981e72d574182a55854bc6d57f3cd4cda351a743f6782"),
    (TaskKind.NEXT_TOKEN_SYNTHETIC, 256, 64, 11, range(8)): (
        "9f166f3453bf005c4e898bc6f3ce7c63310a8755184ba0e7926c5bf7863122a3",
        "5634d8fe148b5da8b473ab5e5d98c615feef839ba3f5ab9aa7fd85fda7a14ae6"),
    (TaskKind.SEQUENCE_COPY, 16, 9, 42, (7, 3, 7, 0)): (
        "e5e09981247fa1e51d0c46229f3f97cf06d64a50ff645947c5e59af0cfa9c26c",
        "3648f9af90ba284bdc5db545609a261b759f5a403b6fc33725c29ed34aa9b2c7"),
    (TaskKind.BINARY_QA_SYNTHETIC, 32, 10, 7, (7, 3, 7, 0)): (
        "b83d287d1e27c64cd110675388e53542482cb80c961634af8714bd5a26aae0ef",
        "194e2ed1f060854b04c5bc6d7cf407fbe25ab264111993cbafdac7ac1a9f8b15"),
}


@pytest.mark.parametrize("spec", GOLDEN_INDEXED_BATCHES,
                         ids=["train-matched", "step-mid", "copy-repeats", "qa-repeats"])
def test_indexed_batches_match_golden_hashes(spec):
    *task_spec, indices = spec
    task = ToyTask(*task_spec)
    for split, want in zip(("train", "eval"), GOLDEN_INDEXED_BATCHES[spec]):
        tokens, targets = task.batch(indices, split)
        got = hashlib.sha256(tokens.astype("<i8").tobytes()
                             + targets.astype("<i8").tobytes()).hexdigest()
        assert got == want, split


@pytest.mark.parametrize("kind", list(TaskKind))
def test_an_empty_batch_raises_value_error(kind):
    task = ToyTask(kind, vocab_size=8, seq_len=7, seed=2)
    with pytest.raises(ValueError, match="at least one index"):
        task.batch([])


def test_binary_qa_structure_and_balance():
    task = ToyTask(TaskKind.BINARY_QA_SYNTHETIC, vocab_size=32, seq_len=10, seed=7)
    answers = []
    for i in range(400):
        (tokens,), (targets,) = task.batch((i,))
        q = tokens[:8]
        assert np.all(q >= 3)
        assert tokens[8] == QMARK_TOKEN
        expected = (q[0] + q[-1]) % 2
        assert tokens[9] == expected
        assert targets[8] == expected
        assert np.all(np.delete(targets, 8) == -1)
        answers.append(int(expected))
    assert 0.4 < np.mean(answers) < 0.6


def test_batch_shapes():
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=8, seq_len=6, seed=1)
    tokens, targets = task.batch(range(4))
    assert tokens.shape == targets.shape == (4, 6)
    et, ey = task.eval_batch(3)
    assert et.shape == (3, 6)


@pytest.mark.parametrize("kind", list(TaskKind))
def test_batch_takes_numpy_integer_indices(kind):
    task = ToyTask(kind, vocab_size=8, seq_len=7, seed=2)
    for split in ("train", "eval"):
        got, want = task.batch(np.arange(5), split), task.batch(range(5), split)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_task_validation():
    with pytest.raises(ConfigError):
        ToyTask(TaskKind.SEQUENCE_COPY, vocab_size=16, seq_len=8, seed=0)  # even
    with pytest.raises(ConfigError):
        ToyTask(TaskKind.BINARY_QA_SYNTHETIC, vocab_size=4, seq_len=10, seed=0)
    with pytest.raises(ConfigError):
        ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=1, seq_len=6, seed=0)


@pytest.mark.parametrize("kind", list(TaskKind), ids=lambda kind: kind.value)
def test_a_kind_given_as_its_string_builds_the_same_task(kind):
    task = ToyTask(kind.value, vocab_size=8, seq_len=7, seed=0)
    assert task.kind is kind and task == ToyTask(kind, vocab_size=8, seq_len=7, seed=0)
    got, want = task.batch(range(3)), ToyTask(kind, 8, 7, 0).batch(range(3))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_kind_string_gets_its_kind_checks():
    # a string once skipped the copy checks and built binary-QA data
    with pytest.raises(ConfigError, match="odd seq_len"):
        ToyTask("sequence_copy", vocab_size=8, seq_len=8, seed=0)
    with pytest.raises(ConfigError, match="^kind must be one of sequence_copy, "):
        ToyTask("nonsense", vocab_size=8, seq_len=7, seed=0)


@pytest.mark.parametrize("field, value", [("vocab_size", 8.0), ("seq_len", 7.0),
                                          ("seed", True), ("seed", 0.5), ("vocab_size", "8"),
                                          ("seed", None)])
def test_task_sizes_and_seed_must_be_integers(field, value):
    spec = {"vocab_size": 8, "seq_len": 7, "seed": 0, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, **spec)


@pytest.mark.parametrize("integer", [np.int64, np.uint8], ids=lambda t: t.__name__)
def test_a_task_stores_numpy_integer_sizes_and_seed_as_their_ints(integer):
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=integer(8), seq_len=integer(7),
                   seed=integer(3))
    want = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=8, seq_len=7, seed=3)
    assert task == want and all(type(v) is int for v in (task.vocab_size, task.seq_len, task.seed))
    assert all(np.array_equal(a, b) for a, b in zip(task.batch(range(3)), want.batch(range(3))))
