"""Golden run directories: every byte-stable file of five CLI runs.

The SHA-256 of each file a run writes, except the timing-bearing
report.txt, was recorded before the dense distance matrix was replaced by
the sparse proximity index (the centralized and decentralized runs before
those two planners shared their round-robin loop), so a refactor that
changes any plan, transcript or metric byte fails here. The runs
happen in a temporary working directory with relative input paths, so
config.snapshot.json and the run id do not depend on where the suite runs.

The hashes hold for the recording platform (x86-64, numpy GOLDEN_NUMPY):
they pin floating-point output with repr, and a different numpy build may
round a last bit differently, so a mismatch names both numpy versions.
"""
import hashlib
import os
import shutil

import numpy as np
import pytest

from participlan.cli import main
from participlan.fixtures import data_path

INPUTS = ("--region", "hlg_like.region.json",
          "--demographics", "hlg_like.demographics.json")

RUNS = {
    "simulate": ["simulate", *INPUTS, "--backend", "rule", "--method", "llm",
                 "--seeds", "101,202", "--rounds", "3", "--speakers", "50"],
    "local-search": ["plan", *INPUTS, "--method", "local-search",
                     "--seeds", "101,202"],
    "gsca": ["plan", *INPUTS, "--method", "gsca", "--seeds", "101,202"],
    "centralized": ["plan", *INPUTS, "--method", "centralized",
                    "--seeds", "101,202"],
    "decentralized": ["plan", *INPUTS, "--method", "decentralized",
                      "--seeds", "101,202"],
}

GOLDEN_NUMPY = "2.4.6"

GOLDEN = {
    "centralized": {
        "aggregate.json":
            "1fa454f83d1ecdc6607f882946fbef81c547a33f77206dca6187b530d7f86ca2",
        "config.snapshot.json":
            "3a26ea6cad3d693f4bd33486cbd3618a49a6755f1ddb6069bffe59d7b8c537a2",
        "metrics.csv":
            "8ff9e7a631aba2311d1489960de616b423fc253896a1eba128d679dfa4d22747",
        "plans/seed101.json":
            "87841c52cdaf1374648ac2ecdc2f1e795d794e436a5d0159cf0a1eeebed87f55",
        "plans/seed202.json":
            "9f456f40abeec9e5c1758806b86944e8cba0fbad7d0bbbd8029423e97b5d53ea",
    },
    "decentralized": {
        "aggregate.json":
            "7b50bc3ac6ac4ac2041343d373f45b56053d85db6d3e2c38d1217ce64a214335",
        "config.snapshot.json":
            "6d73342219cb40103c02c21144d740c77cdf4db87f1b0c3bb3ec78355f257e54",
        "metrics.csv":
            "495b3c3b462f1e81ef972090ddedd6cc6238d9f8fdb139c67db6f3c63966a658",
        "plans/seed101.json":
            "fd6e21717ae00bee463e2fdd39ff27a9a5dc1048fdb564a6e3d2e70c41141df4",
        "plans/seed202.json":
            "acf876f0bfacf839cb29641db62ead30950e8882a865c7d68ce6da62f9163b0e",
    },
    "gsca": {
        "aggregate.json":
            "befbb212ec44d7e3b1947249f63b0164ad0f398f69ac710311da1d252c1f12df",
        "config.snapshot.json":
            "9cff2f7b49c7e12b69fcab45d29ac374b9534d4352d1ef75433319226473d523",
        "metrics.csv":
            "fc6a1b2165c86b4ca40c24fb9a9f7d2edfa3985932f4bba9dbcf5245aab1dcc4",
        "plans/seed101.json":
            "5c715411dacd726f4f035340f2cc6a7fa332b26395ed33241d7ce157af6da9ab",
        "plans/seed202.json":
            "5c71ee4f22940c658d73a37485f882438d26b9e413bf05991e31735ec3d2dcc1",
    },
    "local-search": {
        "aggregate.json":
            "5c9280da2e789f7f52e48525ea4d52b3fbb62a5e397f88ee3a154d241377c8b6",
        "config.snapshot.json":
            "15224ccc246cef00e9987a51931429156efeb9a9c5ebf896d24d97e787aff107",
        "metrics.csv":
            "0a3527c2dffd63ebe2855fdab0a476aa523b0848171a80ff03605c5b071c96e3",
        "plans/seed101.json":
            "3e352fb64222a961009fbbbc05b8ffb77c2ad67e77162a043dc299dcc9c2de71",
        "plans/seed202.json":
            "5ca7b83ae8de706a57f8cb5731cf2b0a033a541e4788ea5601604bad1ddb48f7",
    },
    "simulate": {
        "aggregate.json":
            "564169c3570e054dfbcd2a6f9bca00528678c361f07e1e307ef6f8b7bc65528e",
        "config.snapshot.json":
            "17d1f1fb5ffe0b49d51d10abeef61dcf9b9d3e51f113e016c1dd2db40e19235e",
        "metrics.csv":
            "9a06ff7a511f0401312351cf3419f919528a74224e92c56737a13f7c11d76b80",
        "plans/seed101.final.json":
            "082a1794940c71bbb19cc11cb4607fb95c2d85538907ad087bcbdaccc4631ff9",
        "plans/seed101.initial.json":
            "c8a6a3878322cf7789b2ac66e7a882809278934db4b426698ed529b41c7cd23a",
        "plans/seed202.final.json":
            "f9c06a7160194e3b0dbdee9df58e08e9ab89bdbbdafda73abf1f663ff94361da",
        "plans/seed202.initial.json":
            "46dd93f6a159d0b13c309251d4eff085a73e89e7aa980a1a618edd3a9ba074f8",
        "trajectory.csv":
            "1c578284122c7f871a9cf1a1538ce338b4d91c908760f49b68a1ad91537b40f2",
        "transcripts/seed101.community1.json":
            "6794dbb6a97497252c0637d202e65667cb48bc17622b4882337e6d634976af5a",
        "transcripts/seed101.community1.txt":
            "85db3e2aca9898b96f667100f4ef0acb4ea9954235b71bc3e788a84c7a87d310",
        "transcripts/seed101.community2.json":
            "f7f833487525199f3b313d801ba2bf8fab2e30633cdeffadc50f4b501f448651",
        "transcripts/seed101.community2.txt":
            "c01490baad0e087d221a62477bbb048a7ebb2817a06a6ce0cd7d60a042c75acb",
        "transcripts/seed101.community3.json":
            "bf9daa406653b3befcad486ba420fdeb5f204c72f1db503fc2c3b0126d567349",
        "transcripts/seed101.community3.txt":
            "6e4c5d9e7a18cf005cbcc47f1a9f211b55871f4804b8be584ea3e51423d9d69e",
        "transcripts/seed101.community4.json":
            "501ac4e5fb716ee6ee247819536d16c0a644f6c4238866191ed7ecc5afd14146",
        "transcripts/seed101.community4.txt":
            "a25e554c466b330f67372b7572c3a8b0bfb5c59ad69b9941792799a113b7ece9",
        "transcripts/seed202.community1.json":
            "4e8e1225e6549603ee156061b535a8137b7bd027fb01fea9ac0571b9c975fb44",
        "transcripts/seed202.community1.txt":
            "4c818d33d06384382ec52ffa90093547730cd598929886a323b5d17d9df757ff",
        "transcripts/seed202.community2.json":
            "0118a5667ff1c5aecc9d70ed1f483ce72f68d69f6c4027c228603288019ec361",
        "transcripts/seed202.community2.txt":
            "f0bfb86ba7665c0bbde7f7f6401ca824b8b3ffb8f738a13eabfbc611d323f49b",
        "transcripts/seed202.community3.json":
            "585a3fb129c535c05021118316b7999451c8a4ebe9814fba625ff46f1a4ae5a3",
        "transcripts/seed202.community3.txt":
            "d5b1d5967c7eb5a80e61c73d19f041129c6e7da553837d292b787f171429ba8e",
        "transcripts/seed202.community4.json":
            "8a9370ef9bb90a99caebf037618bc7f48fbd598ce2c5dd0e9b5e20d7024b1dec",
        "transcripts/seed202.community4.txt":
            "d6eb5ce8b47a10cd6e6458533e73a045ef21cb00f08c6885b04b5b3c32957525",
    },
}


def _digests(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel == "report.txt":
                continue
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_directory(name, tmp_path, monkeypatch):
    for rel in ("hlg_like.region.json", "hlg_like.demographics.json"):
        shutil.copy(data_path(rel), tmp_path / rel)
    monkeypatch.chdir(tmp_path)
    assert main(RUNS[name] + ["--out", "run"]) == 0
    got = _digests("run")
    assert got == GOLDEN[name], (
        f"run files differ from the golden digests, recorded with numpy "
        f"{GOLDEN_NUMPY}; this run used numpy {np.__version__}")
