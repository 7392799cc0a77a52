"""Pinned digests of every benchmark's reference stream.

The generators' hot loops are tuned for speed (bound gap draws, the
exact ``randbelow`` integer draw); these pins hold the streams
themselves fixed: the sha256 of the first 20k references of every
registered benchmark at two seeds.  The zipf benchmarks sample through
numpy when it is installed, so their pins are skipped without it.
"""

import hashlib
import itertools

import pytest

from repro.workloads import BENCHMARKS, get_benchmark, make_ref_stream

L2 = 64 * 1024
N_REFS = 20_000

STREAM_DIGESTS = {
    ("applu", 0): (
        "adf6faae66e976a9ec48f9a11df6bcd1c8ed11e6078d3ebb21b0427ae280c185"
    ),
    ("applu", 7): (
        "80110f3b0000a1a2d9a20167f5c7d87b733ed82f0c2b1ff17eb2d91f02581487"
    ),
    ("apsi", 0): (
        "50446c8ca09ba6274456411b586a1ae32a0a4a01d26162a1ebc4e2482b5ce7a3"
    ),
    ("apsi", 7): (
        "5c6acd9308f968b2139aaeb279950f17ca0a1d672a65dd24e368f3940a853a51"
    ),
    ("art", 0): (
        "00dc350bf15a120fba98a48a906144e5bc6843fe82f1e77fedf138914c20ef49"
    ),
    ("art", 7): (
        "a28845e8d0bf3aff7bca7ac89d0243a6240fc1813fb42a43bb0f58820009593f"
    ),
    ("bzip2", 0): (
        "b562a6f5e5f0cdadcd84942a8cd4d7eda52b2a0a47d954d1f0efd692110ef64b"
    ),
    ("bzip2", 7): (
        "3eeb74f6c82f0e5b9d18d7e8f1a24dd665596485a8fc1769a381ed96a453aa74"
    ),
    ("equake", 0): (
        "dc753a039e5d8b483666974332c225888849e3a06fd3fa2024cb6ea1fc8ad7f1"
    ),
    ("equake", 7): (
        "20a244f4eb47c0f26f14c9965b9afb082b2be295c37842b605500ecbb5a56e73"
    ),
    ("gap", 0): (
        "aea2828122d409ca65fe9e4c61cc001bc9b30af6d233c2ba92e540285e39757c"
    ),
    ("gap", 7): (
        "2fbd3e5c6290b177f1bc6b99ace1460e3c7710a5eb5d36c6de9b7fa8e6d031b8"
    ),
    ("gzip", 0): (
        "cc8d38b8bbc31694607196bef3d4ad8ea7969bcc0e4637c6e811790206530156"
    ),
    ("gzip", 7): (
        "9d0f9b795b416793c326d287da53dce2229f375d42baabff430c51f264aef762"
    ),
    ("mcf", 0): (
        "03bc9eed779399f0ce73e3fbec74ea20d14aced20972628ece365e3b937d6397"
    ),
    ("mcf", 7): (
        "99666874ec317d2103106f219864171fda779398b0fde210ce9864f51e7f4167"
    ),
    ("mesa", 0): (
        "83811f6b6293f768a533d6d473c8719ef588fe5cf008b1fcf638996f01e93493"
    ),
    ("mesa", 7): (
        "903a05c03874bdbefe3c57b34d4f430bb68900a4361fdada0f1bd789d63b7f0f"
    ),
    ("mgrid", 0): (
        "f09e7223ad24fe737554391c5a1628d99b2e649ebcb8c84d7d43381aa9eb0b76"
    ),
    ("mgrid", 7): (
        "35db028573de82bcf951668ebe8091e67f9b361f0966d3ee4ced0ffabdb71de1"
    ),
    ("parser", 0): (
        "d7c022449fa65d82da49c7f53f53b01b2537175c98671697591f2913aee0cb67"
    ),
    ("parser", 7): (
        "2e09aeccef0877748e780ec949a4849f4ecf132a3b562a28aa4233765f27ef38"
    ),
    ("swim", 0): (
        "ef6be466d4fef0e060859049c05531e4e07f2685124cc5c3c1e783becba61307"
    ),
    ("swim", 7): (
        "97596f06e5acffa34dcb4c79ba4518043376c36b0b226ee084dccc1707bb601d"
    ),
    ("twolf", 0): (
        "d69412740b74c784e3537a914016ad3f1d249cb37075e37bc8b2753d65f41393"
    ),
    ("twolf", 7): (
        "d0027c9808c52ad2c32eb2f03a2d69b8526a2570957e92107e67219d8c6771a6"
    ),
    ("vpr", 0): (
        "d8128f83389a95aa36d7334273a1701f7987417f245db01bc4acd09882373070"
    ),
    ("vpr", 7): (
        "dec27332fbfa987ada2143d9e711de7940c4b86561acf23951e4a601514c896e"
    ),
}


def stream_digest(name: str, seed: int) -> str:
    h = hashlib.sha256()
    stream = make_ref_stream(get_benchmark(name), L2, seed=seed)
    for is_write, addr, gap in itertools.islice(stream, N_REFS):
        h.update(b"%d %d %d\n" % (is_write, addr, gap))
    return h.hexdigest()


def test_every_benchmark_is_pinned():
    assert {name for name, _ in STREAM_DIGESTS} == set(BENCHMARKS)


@pytest.mark.parametrize("name,seed", sorted(STREAM_DIGESTS))
def test_stream_matches_pin(name, seed):
    if get_benchmark(name).kind == "zipf":
        pytest.importorskip("numpy")
    assert stream_digest(name, seed) == STREAM_DIGESTS[name, seed]
