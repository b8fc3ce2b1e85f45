import ctypes
import os
import platform
import re
import shutil
import subprocess

import numpy as np
import pytest

from enkpf import RngNode, compiled, rng


def test_same_path_same_stream():
    a = RngNode(123).child("cycle", 4, "obs").generator().standard_normal(8)
    b = RngNode(123).child("cycle", 4, "obs").generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_sibling_streams_differ():
    node = RngNode(123)
    a = node.child("obs").generator().standard_normal(8)
    b = node.child("update").generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_draw_isolation_between_siblings():
    # consuming one stream must not shift a sibling
    node = RngNode(9)
    before = node.child("b").generator().standard_normal(4)
    node.child("a").generator().standard_normal(1000)
    after = node.child("b").generator().standard_normal(4)
    assert np.array_equal(before, after)


def test_string_and_int_keys_coexist():
    node = RngNode(7)
    assert node.child("x", 3).path == node.child("x").child(3).path


def test_seed_changes_everything():
    a = RngNode(1).child("z").generator().standard_normal(4)
    b = RngNode(2).child("z").generator().standard_normal(4)
    assert not np.array_equal(a, b)


def test_invalid_keys_rejected():
    with pytest.raises(ValueError):
        RngNode(0).child(-1)
    with pytest.raises(ValueError):
        RngNode(0).child(2**32)
    with pytest.raises(ValueError):
        RngNode(-5)


@pytest.mark.parametrize("seed", [2.7, 2.0, True, np.float64(3.0), "3", None])
def test_non_integer_seeds_rejected(seed):
    with pytest.raises(ValueError, match=re.escape(repr(seed))):
        RngNode(seed)


@pytest.mark.parametrize("key", [3.9, 3.0, True, np.bool_(True), np.float32(1.0), None, b"x"])
def test_non_integer_keys_rejected(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        RngNode(0).child(key)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        RngNode(0, (key,))


def test_numpy_integers_are_accepted_as_python_ints():
    node = RngNode(np.int64(2)).child(np.uint32(3), np.int8(4))
    assert node == RngNode(2).child(3, 4)
    assert type(node.seed) is int and all(type(k) is int for k in node.path)
    assert node.standard_normal(4).tobytes() == RngNode(2).child(3, 4).standard_normal(4).tobytes()


# RngNode.standard_normal against the Generator of the same node, bit for
# bit. Seeds of one, two and three 32-bit words; paths of 0 to 6 keys, with
# crc32 string keys; sizes around a Philox block of four words and past the
# kernel's buffer. Over 10^6 draws in all, so that the ziggurat's tail
# (layer 0) and its wedge tests run many times: a draw beyond
# _TAIL_START comes from the tail, and every raw word beyond one per draw
# is a wedge test, a tail sample or a redrawn candidate.

_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
_PATHS = [(), ("obs",), (0, 2**32 - 1), ("cycle", 4, "update"), ("cycle", 4, "update", "eps1"),
          (7, "init", 0, "ensemble", 1), ("a", 1, 2, 3, 4, "b"), ("resample",), (5, "eps2", 9)]
_SHAPES = [(0,), (1,), (3,), (4,), (5,), (20, 400), (20001,)]
_TAIL_START = 3.6541528853610088  # numpy's ziggurat_nor_r


def _raw_words_used(gen) -> int:
    # numpy advances the block counter, from 0, before each block of four
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


def _assert_standard_normal_matches_generator():
    draws = tails = extra_words = 0
    for seed in _SEEDS:
        for path in _PATHS:
            node = RngNode(seed).child(*path)
            for shape in _SHAPES:
                gen = node.generator()
                expected = gen.standard_normal(shape)
                got = node.standard_normal(shape)
                assert got.shape == expected.shape and got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), (seed, path, shape)
                draws += got.size
                tails += int(np.count_nonzero(np.abs(got) >= _TAIL_START))
                extra_words += _raw_words_used(gen) - got.size
    assert draws >= 10**6
    assert tails > 0 and extra_words > 2 * tails


needs_kernel = pytest.mark.skipif(rng._normal_kernel() is None,
                                  reason="_rng.c could not be built here")


@needs_kernel
def test_standard_normal_is_bitwise_numpy():
    _assert_standard_normal_matches_generator()


def test_standard_normal_falls_back_to_the_generator(monkeypatch):
    monkeypatch.setattr(compiled, "load", lambda stem: None)
    rng._normal_kernel.cache_clear()
    try:
        assert rng._normal_kernel() is None
        _assert_standard_normal_matches_generator()
    finally:
        rng._normal_kernel.cache_clear()


def _seed_sequence_key(node) -> list[int]:
    """Philox's key for the stream of `node`, from numpy."""
    seq = np.random.SeedSequence(node.seed, spawn_key=node.path)
    return seq.generate_state(2, np.uint64).tolist()


@needs_kernel
def test_philox_key_is_the_seed_sequence_state():
    philox_key = compiled.load("_rng").philox_key
    philox_key.argtypes = [ctypes.POINTER(ctypes.c_uint32), ctypes.c_long,
                           ctypes.POINTER(ctypes.c_uint64)]
    philox_key.restype = None
    key = (ctypes.c_uint64 * 2)()
    for seed in [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**73, 2**73 - 1]:
        for path in _PATHS:
            node = RngNode(seed).child(*path)
            words = node._entropy()
            philox_key(words, len(words), key)
            assert list(key) == _seed_sequence_key(node), (seed, path)


# _rng.c built with AddressSanitizer and UndefinedBehaviorSanitizer
# (tests/rng_driver.c): the words, the key and the draws each sit in a heap
# block of exactly their size, so a read past the words or a write of one
# draw past n ends the run.

def test_kernel_under_address_and_undefined_behaviour_sanitizers(tmp_path, sanitized_build):
    driver = sanitized_build("rng_driver", "_rng")
    nodes = [RngNode(seed).child(*path)
             for seed in (0, 2**64 + 5) for path in ((), ("cycle", 4, "obs"))]
    sizes = [*range(10), 20001]
    lines = []
    for node in nodes:
        words = list(node._entropy())
        lines += [" ".join(map(str, [n, len(words), *words])) for n in sizes]
    (tmp_path / "manifest").write_text("\n".join(lines) + "\n")
    run = subprocess.run([str(driver), str(tmp_path / "manifest"), str(tmp_path / "out")],
                         capture_output=True, text=True,
                         env=dict(os.environ, ASAN_OPTIONS="detect_leaks=0"))
    assert run.returncode == 0, run.stderr[-3000:]

    out, at = (tmp_path / "out").read_bytes(), 0
    for node in nodes:
        expected_key = _seed_sequence_key(node)
        for n in sizes:
            assert np.frombuffer(out, np.uint64, 2, at).tolist() == expected_key
            expected = node.generator().standard_normal(n)
            assert out[at + 16:at + 16 + 8 * n] == expected.tobytes(), (node, n)
            at += 16 + 8 * n
    assert at == len(out)


@needs_kernel
@pytest.mark.skipif(shutil.which("readelf") is None or platform.libc_ver()[0] != "glibc",
                    reason="needs readelf and glibc")
def test_kernel_takes_exp_and_log1p_from_libm():
    # numpy's sampler calls libm's exp and log1p; the library must name
    # libm as a dependency rather than count on the process having it
    library = compiled.load("_rng")._name
    dynamic = subprocess.run(["readelf", "-W", "--dynamic", "--dyn-syms", library],
                             capture_output=True, text=True, check=True).stdout
    assert re.search(r"\(NEEDED\)\s+Shared library: \[libm\.so", dynamic)
    undefined = {line.split(" UND ")[1].split("@")[0].strip()
                 for line in dynamic.splitlines() if " UND " in line}
    assert {"exp", "log1p"} <= undefined
