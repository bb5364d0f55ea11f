"""Seeded CLI runs print the same bytes from one change to the next.

Each pin is the sha256 of a command's full stdout. The pins were recorded
with NumPy 2.4.6 on an x86-64 Linux machine; another NumPy build or CPU may
round differently and legitimately change them.
"""

import hashlib
import json

import pytest

from chsh_steering.cli import main

STATE = {"theta_deg": 22.5, "p1": 0.9}
CORRELATORS = {"AB": 0.3325, "ApB": 0.3325, "ABp": 0.3325, "ApBp": -0.3325}

PINS = {
    "experiment --theta 22.5 --p1 0.9 --eta-bob 0.85 --mc 1000000 --seed 1":
        "4b34c9e4be380b28b4ae9970664e381c81bc6b7850e589947f11f6027f5e43ac",
    "experiment --theta 22.5 --p1 0.9 --eta-bob 0.85":
        "e4f52ec9212c8ff4aa375cea433228a7fefe4929330864bfb780e435b78a97a5",
    "experiment --theta 33 --p1 0.7 --eta-bob 0.2 --eta-alice 0.9 --mc 100000 --seed 5":
        "6e7e551f42a848dcfd89ed7a8774f4d59fe8e9050e8cf3542ed665c246a63339",
    # Efficiency 1/8192, on the same sampling grid as every other efficiency.
    "experiment --theta 22.5 --p1 0.9 --eta-bob 0.0001220703125 --mc 20000 --seed 2":
        "4fcea6eb2edf0758ba59b5f83bff9c6b21fd5c2dcd6c3bda7c57426bb586886a",
    "experiment --theta 33 --p1 0.7 --eta-bob 0.2 --eta-alice 0.9":
        "b39ae5d5bd23dbcf6ccd316e8a3d3c953fff457307cd07b41d921a54093bbf91",
    "experiment --reported-s 1.330 --eta-bob 0.85":
        "2313e2df11b515d7ff92c84460bccda08ce2687702722d6bfe5592b8e82bd44a",
    "oracle check --grid 2048 --samples 2000 --seed 201":
        "d9d23cfd4d0da88736e3d7df74cd5b63afedfc1b6d046ae9e03473579a4f9c69",
    "oracle check --grid 64 --samples 2000 --seed 7":
        "1a045de722d48c5f65fafb8835dbbb29c4b6f9d675cc9608ebd87d6435d28f41",
    # Small batches: interactive-mix's 20-point oracle size and a single point.
    "oracle check --grid 2048 --samples 20 --seed 3":
        "1bbcacbed629affd39989863a7fa4e353d88c204542b86903e1afe325cfdfbc0",
    "oracle check --grid 64 --samples 1 --seed 0":
        "006895eae995efb29c7e83d8842fd8706829f1a79a42c94d315c1b43f67f2530",
    "scan state --input {state} --resolution 24":
        "7bba821ea2eaa89ce025ac59243e78d817f77b5759bf9100a120745eea140c72",
    "witness eval {correlators}":
        "888339917a59a88d17e21b070d09f7f35645bbc9aa83b6d5096030f91530ca91",
    "witness eval {correlators} --format table":
        "e06e77b60a95ac40c3c624e380f9d85da22913b63603ddc518aa0d59e17bc516",
    "experiment --theta 22.5 --p1 0.9 --eta-bob 0.85 --format table":
        "9801a3c4680f2074daaba2dd23b9d78e0ff669bfc33daee567414016066f8861",
    "experiment --reported-s 1.330 --eta-bob 0.85 --format table":
        "0cb3b74361940fd6c9cb14ede8ab9d4cca92c51a0bda7a0108a6f8afcd6cb9d5",
    "scan angles --resolution 360":
        "496fc8b43cc89f429b8cb10f48446d4ce188e1b92dcf6b945a9367069a70c00b",
    "ellipse --mu 0.3 --n 64":
        "d690ccb3d423a5b123b046a260e7c3808b3d4dea247ef908bbee9adc1f102139",
    "ellipse --mu 0.5 --n 1000":
        "9f856ba6cd96ffef05305e0d466c549dccd3c22e633407cd99827b24ccc76e8f",
}


@pytest.mark.parametrize("command, digest", PINS.items(), ids=list(PINS))
def test_stdout_matches_pin(capsys, tmp_path, command, digest):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(STATE))
    correlators = tmp_path / "correlators.json"
    correlators.write_text(json.dumps({"correlators": CORRELATORS}))
    argv = command.format(state=state, correlators=correlators).split()
    code = main(argv)
    out = capsys.readouterr().out
    # The oracle check exits 1 on a disagreement; these runs have none.
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
