"""The numpy Generator methods that the canonical bytes read, pinned.

NEP 19 keeps SeedSequence and the bit generators' raw streams stable, but
lets Generator methods change their algorithms between numpy versions. Each
method the package draws through is pinned here by a digest of its output at
two fixed seeds, in the forms the package calls it, so that a numpy upgrade
that moves the bytes names the method that moved. The raw words are pinned
too: if they fail, every other pin fails with them and names nothing.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from weakham import SeededRng, p_from_c


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _draws(gen, method):
    """The output of one method, in each form a call site uses it."""
    if method == "raw":
        return [gen.bit_generator.random_raw(64)]
    if method == "binomial":  # _gnp_rows: one edge count per draw
        cases = [
            (math.comb(2000, 3), p_from_c(2000, 3, 0.0)),  # large mean (BTPE)
            (math.comb(16, 3), 0.02),  # small mean (inversion)
        ]
        return [np.array([gen.binomial(t, p) for t, p in cases for _ in range(4)])]
    if method == "choice":  # the dense branch of _sample_distinct_rows
        total = math.comb(100, 3)
        return [
            gen.choice(total, size=1000, replace=False),  # Floyd's algorithm
            gen.choice(total, size=100_000, replace=False),  # tail shuffle
        ]
    if method == "integers":  # the sparse branch of _sample_distinct_rows
        return [gen.integers(0, 2000, size=(6000, 3)), gen.integers(0, 10**4, size=(999, 4))]
    if method == "permutation":  # _process_order, and u_sampled_check's shrink
        return [gen.permutation(math.comb(16, 3)), gen.permutation([3, 1, 4, 15, 9, 2, 6])]
    if method == "random":  # greedy_probe
        return [gen.random((32, 500))]
    raise AssertionError(method)


_PINNED = {
    ("raw", 0):
        "eeeafaa70720dc7a967349c4fa2364d2ac56cef4c1930a7d11c6971adbc2b0d2",
    ("raw", 1):
        "2969f62a1de68f29e494a4806a4f98b18d59cb17c48bde6b0dfe5f6ae370ff23",
    ("binomial", 0):
        "96fd046b7751b2d2f90126c58bf2fea644871190469b3bf9d5891a6edaaf550e",
    ("binomial", 1):
        "6d467b880baf2fb3c919b069555fe2d88047dffd9116e5455ea08ea4d0b5a83d",
    ("choice", 0):
        "ec18a6c13cfe846789d0dab49b7a421d3d15343fd4105e73168512634dcb2752",
    ("choice", 1):
        "fe661943de9863f2fee9d5daeab6644925a629946fa132c442c5e517b143c500",
    ("integers", 0):
        "97d3cb8e534992d9a72e89bfdfa509b34244a8f5b10a7ca18ace5241eb4b4598",
    ("integers", 1):
        "933e69105c139b0d82145265e11dbe9b0585faab2e64de9dd795430570a7a04f",
    ("permutation", 0):
        "4c5f4a6ddfd6986e21ea8e974b61f8edb0ce92f2813fa33b83b37769fb007fd5",
    ("permutation", 1):
        "3eae49e3f040812b3d39255d893a26bb68bb48200bedd4a26c4a897b3bbde011",
    ("random", 0):
        "786df03dbbe92d2cf359d4de99e177b298fb26e40064e7084092cfe44da412e4",
    ("random", 1):
        "1bd99291cd4ef174919aa23bd5db5d44ca23376c167ae88f2ae7b9386ed29ed6",
}


@pytest.mark.parametrize(
    "method, seed", list(_PINNED), ids=[f"{m}-seed{s}" for m, s in _PINNED]
)
def test_generator_method_is_pinned(method, seed):
    gen = SeededRng(seed, 7).generator()
    got = hashlib.sha256()
    for out in _draws(gen, method):
        got.update(_sha(out).encode())
    assert got.hexdigest() == _PINNED[method, seed], method


@pytest.mark.parametrize("n, d", [(200, 3), (2000, 3), (10**4, 3), (1000, 5)])
@pytest.mark.parametrize("a, b", [(1, 2), (5, 7), (333, 4000), (5070, 77)])
def test_integers_stream_does_not_depend_on_the_cut(n, d, a, b):
    # the sparse sampler may cut its stream into batches anywhere: (a + b)
    # rows are a rows followed by b rows, also when a*d leaves half a word
    whole = SeededRng(3, 1).generator().integers(0, n, size=(a + b, d))
    gen = SeededRng(3, 1).generator()
    head = gen.integers(0, n, size=(a, d))
    tail = gen.integers(0, n, size=(b, d))
    assert np.array_equal(whole, np.concatenate([head, tail]))
