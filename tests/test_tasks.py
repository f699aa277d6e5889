import hashlib

import numpy as np
import pytest

from mezofit.memory import ConfigError
from mezofit.tasks import QMARK_TOKEN, SEP_TOKEN, TaskKind, ToyTask, accuracy
from mezofit.zo import splitmix64


def test_samples_are_deterministic():
    task = ToyTask(TaskKind.SEQUENCE_COPY, vocab_size=16, seq_len=9, seed=42)
    t1, y1 = task.sample(5)
    t2, y2 = task.sample(5)
    assert np.array_equal(t1, t2) and np.array_equal(y1, y2)
    t3, _ = task.sample(6)
    assert not np.array_equal(t1, t3)


def test_train_and_eval_splits_are_disjoint():
    # pattern space 255^8: identical sequences across splits would mean the
    # index partition leaked, not a chance collision
    task = ToyTask(TaskKind.SEQUENCE_COPY, vocab_size=256, seq_len=17, seed=42)
    train = {task.sample(i, "train")[0].tobytes() for i in range(200)}
    evald = {task.sample(i, "eval")[0].tobytes() for i in range(200)}
    assert len(train & evald) == 0
    assert len(train) == len(evald) == 200


def test_sequence_copy_structure():
    task = ToyTask(TaskKind.SEQUENCE_COPY, vocab_size=16, seq_len=11, seed=0)
    tokens, targets = task.sample(0)
    p = 5
    assert tokens[p] == SEP_TOKEN
    assert np.array_equal(tokens[:p], tokens[p + 1:])
    assert np.all(tokens[:p] >= 1)
    assert np.array_equal(targets[p:-1], tokens[:p])
    assert np.all(targets[:p] == -1) and targets[-1] == -1


def test_next_token_follows_markov_successors():
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=12, seq_len=32, seed=3)
    succ, probs = task._markov_successors()
    assert succ.shape == (12, 2)
    assert probs.sum() == pytest.approx(1.0)
    tokens, targets = task.sample(9)
    for i in range(31):
        assert tokens[i + 1] in succ[tokens[i]]
        assert targets[i] == tokens[i + 1]
    assert targets[-1] == -1


def test_markov_table_is_shared_and_read_only():
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=12, seq_len=32, seed=3)
    succ, probs = task._markov_successors()
    other = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=12, seq_len=9, seed=3)
    assert other._markov_successors()[0] is succ  # built once per (seed, vocab)
    before = task.batch(range(8))
    for arr in (succ, probs):
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
        assert np.array_equal(task.sample(index)[0], _reference_next_token_sample(task, index))


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


def test_binary_qa_structure_and_balance():
    task = ToyTask(TaskKind.BINARY_QA_SYNTHETIC, vocab_size=32, seq_len=10, seed=7)
    answers = []
    for i in range(400):
        tokens, targets = task.sample(i)
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


def test_accuracy_counts_unmasked_positions_only():
    logits = np.zeros((1, 3, 4))
    logits[0, 0, 2] = 5.0
    logits[0, 1, 1] = 5.0
    logits[0, 2, 0] = 5.0
    targets = np.array([[2, 3, -1]])
    assert accuracy(logits, targets) == 0.5
    with pytest.raises(ValueError):
        accuracy(logits, np.full((1, 3), -1))
