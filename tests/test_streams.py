"""Stream addressing and the one uniform-subset rule."""

import ast
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedquant import cli, federation as fed
from fedquant.streams import (CLIENT, DATA, NOISE, PILOT, ROUND, SPLIT, VERIFY, k_subset,
                              philox_stream, rekey)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestKSubset:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.data(), st.integers(0, 2 ** 32 - 1))
    def test_k_distinct_sorted_indices(self, n, data, seed):
        k = data.draw(st.integers(1, n))
        rows = data.draw(st.integers(1, 4))
        picked = k_subset(np.random.default_rng([seed]).random((rows, n)), k)
        assert picked.shape == (rows, k)
        for row in picked:  # strictly increasing, so k distinct indices
            assert np.all(np.diff(row) > 0) and row[0] >= 0 and row[-1] < n

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=5), st.data(),
           st.integers(0, 2 ** 32 - 1))
    def test_inf_columns_never_chosen(self, sizes, data, seed):
        # the padded key block of plan_rounds: row r has sizes[r] keys
        k = data.draw(st.integers(1, min(sizes)))
        keys = np.full((len(sizes), max(sizes)), np.inf)
        rng = np.random.default_rng([seed])
        for r, size in enumerate(sizes):
            keys[r, :size] = rng.random(size)
        picked = k_subset(keys, k)
        for r, size in enumerate(sizes):
            assert picked[r, -1] < size
            assert np.array_equal(picked[r], k_subset(keys[r, :size], k))

    def test_every_subset_of_five_choose_two_occurs(self):
        draws = 20_000
        counts = dict.fromkeys(itertools.combinations(range(5), 2), 0)
        for row in k_subset(np.random.default_rng([50]).random((draws, 5)), 2):
            counts[tuple(row.tolist())] += 1
        expected = draws / 10
        # every subset occurs, each within 5 standard deviations of its mean
        assert all(abs(c - expected) < 5 * np.sqrt(expected * 0.9) for c in counts.values())


def test_streams_of_distinct_addresses_are_distinct():
    # the role keeps round t's stream apart from client 0 of round t and from
    # every data, analysis and verifier stream, the counter keeps (t, c) apart
    # from (c, t), and the key keeps seeds apart
    addresses = [(3, ROUND, 7, 0), (3, CLIENT, 7, 0), (3, CLIENT, 7, 2), (3, CLIENT, 2, 7),
                 (4, ROUND, 7, 0), (4, CLIENT, 7, 2), (3, ROUND, 0, 0), (3, CLIENT, 0, 0),
                 (3, ROUND, 8, 0), (3, DATA, 0, 0), (4, DATA, 0, 0), (3, SPLIT, 0, 0),
                 (3, PILOT, 0, 0), (3, NOISE, 0, 0), (3, VERIFY, 0, 0), (3, VERIFY, 1, 0),
                 (3, VERIFY, 2, 0)]
    streams = [philox_stream(*address) for address in addresses]
    draws = {rng.random(4).tobytes() for rng in streams}
    assert len(draws) == len(streams)


LOGISTIC_CONFIG = """\
model = logistic
regularization = 0.25
mu = 0.125
lipschitz = 3
num_clients = 5
clients_per_round = 2
local_steps = 2
batch_size = 2
dimension = 4
samples_per_client = 6
rounds = 20
uplink_mode = differential
uplink_bits = 3
downlink_mode = quantized
"""


def record_addresses(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Record the ``(seed, role, t, client)`` address of every Philox stream
    that fedquant derives, through ``philox_stream`` or ``rekey``."""
    drawn = []

    def fresh(seed, role, t=0, client=0):
        drawn.append((seed, role, t, client))
        return philox_stream(seed, role, t, client)

    def rekeyed(rng, seed, role, t, client=0):
        drawn.append((seed, role, t, client))
        return rekey(rng, seed, role, t, client)

    for name, module in list(sys.modules.items()):
        if name == "fedquant" or name.startswith("fedquant."):
            for attr, value in list(vars(module).items()):
                if value is philox_stream:
                    monkeypatch.setattr(module, attr, fresh)
                elif value is rekey:
                    monkeypatch.setattr(module, attr, rekeyed)
    return drawn


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_each_command_draws_from_each_address_at_most_once(tmp_path, monkeypatch, seed):
    drawn = record_addresses(monkeypatch)
    config = tmp_path / "run.cfg"
    config.write_text(LOGISTIC_CONFIG + f"seed = {seed}\n")
    # the gap bound covers one quantized link, so bound reads the float-downlink twin
    one_link = tmp_path / "one_link.cfg"
    float_downlink = LOGISTIC_CONFIG.replace("downlink_mode = quantized", "downlink_mode = float")
    one_link.write_text(float_downlink + f"seed = {seed}\n")
    metrics = tmp_path / "out" / "metrics.csv"
    commands = [
        (["run", "--config", str(config), "--out", str(metrics.parent)],
         {DATA, SPLIT, ROUND, CLIENT}),
        (["bound", "--config", str(one_link), "--out", str(tmp_path / "b.csv"), str(metrics)],
         {DATA, SPLIT, ROUND, CLIENT, PILOT, NOISE}),
        (["verify", "sampling", "--seed", str(seed)], {VERIFY}),
        (["verify", "rounding", "--seed", str(seed)], {VERIFY}),
        (["verify", "differential", "--dim", "4", "--seed", str(seed)], {VERIFY}),
    ]
    for argv, roles in commands:
        drawn.clear()
        assert cli.main(argv) == 0
        assert len(set(drawn)) == len(drawn), argv
        assert {address[0] for address in drawn} == {seed}
        assert {address[1] for address in drawn} == roles, argv


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 2])
def test_a_seeds_split_is_not_the_next_seeds_data(monkeypatch, seed):
    drawn = record_addresses(monkeypatch)
    fed.build_problem(cli.parse_config_text(LOGISTIC_CONFIG + f"seed = {seed}\n"))
    split = [address for address in drawn if address[1] == SPLIT]
    drawn.clear()
    fed.build_problem(cli.parse_config_text(LOGISTIC_CONFIG + f"seed = {seed + 1}\n"))
    data = [address for address in drawn if address[1] == DATA]
    assert len(split) == len(data) == 1 and split != data
    assert not np.array_equal(philox_stream(*split[0]).random(8), philox_stream(*data[0]).random(8))


def test_src_derives_no_stream_but_a_philox_one():
    calls = []
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("SeedSequence", "default_rng"):
                    calls.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert calls == []


def test_only_federation_reads_a_configs_link_keys():
    # federation.Link decides what grid, structure and rounding mean for each
    # link; elsewhere only quantizer reads them, off its own spec and wire form
    reads, outside = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in ("grid", "structure", "rounding")):
                owner = ast.unparse(node.value)
                where = f"{path.relative_to(SRC)}:{node.lineno} {owner}.{node.attr}"
                if path.name == "federation.py":
                    reads.append(where)
                elif path.name != "quantizer.py" or owner not in ("self", "spec", "qv"):
                    outside.append(where)
    assert reads and outside == []


# the engine's own pool: generator 0 draws a round's stream, the rest its clients'
POOL = fed.init_state(fed.FederationConfig(
    num_clients=2, clients_per_round=1, rounds=0, batch_size=1, dimension=2,
    samples_per_client=2)).pool


def uint32_then_doubles(rng):
    # 32-bit words first, so a stale pending half word shows
    return rng.integers(0, 2 ** 32, 3, dtype=np.uint32).tobytes() + rng.random(5).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(0, 4),
       st.integers(0, 2 ** 64 - 1))
def test_rekeyed_pool_generator_draws_like_a_fresh_stream(seed, t, client, is_round,
                                                           blocks, previous_seed):
    rng = POOL[0] if is_round else POOL[1]
    # leave it mid-buffer, with half a 32-bit word pending
    rekey(rng, previous_seed, CLIENT, 1, 2)
    rng.random(4 * blocks + 1)
    rng.integers(0, 2 ** 32, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["buffer_pos"] < 4 and state["has_uint32"] == 1

    if is_round:
        pooled, fresh = rekey(rng, seed, ROUND, t), philox_stream(seed, ROUND, t)
    else:
        pooled, fresh = rekey(rng, seed, CLIENT, t, client), philox_stream(seed, CLIENT, t, client)
    assert uint32_then_doubles(pooled) == uint32_then_doubles(fresh)
