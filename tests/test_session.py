"""The entry points' session set-up: the PYTHONPATH step (Ray workers
inherit it and must import pdfrust_ray, whatever the variable held
before), and argument parsing before any session starts. No Ray needed."""

import os
import subprocess
import sys

from pdfrust_ray.session import REPO, put_repo_on_pythonpath


def test_repo_prepended_to_unset_pythonpath():
    env = {}
    put_repo_on_pythonpath(env)
    assert env["PYTHONPATH"] == REPO


def test_repo_prepended_to_pythonpath_set_without_it():
    env = {"PYTHONPATH": os.pathsep.join(["/elsewhere/a", "/elsewhere/b"])}
    put_repo_on_pythonpath(env)
    assert env["PYTHONPATH"].split(os.pathsep) == [REPO, "/elsewhere/a", "/elsewhere/b"]


def test_pythonpath_holding_repo_left_alone():
    env = {"PYTHONPATH": os.pathsep.join(["/elsewhere", REPO])}
    put_repo_on_pythonpath(env)
    assert env["PYTHONPATH"] == os.pathsep.join(["/elsewhere", REPO])


def test_sf1_probe_parses_arguments_before_starting_ray():
    """`--help` exits 0 and an unknown flag exits 2, neither having
    started Ray (the probe goes on to an 8M-row run)."""
    script = (
        "import sys, ray\n"
        "from tools import sf1_probe\n"
        "try:\n"
        "    sf1_probe.main(sys.argv[1:])\n"
        "except SystemExit as ex:\n"
        "    print(ex.code, ray.is_initialized())\n"
    )
    for argv, want in ((["--help"], "0 False"), (["--no-such-flag"], "2 False")):
        r = subprocess.run(
            [sys.executable, "-c", script, *argv],
            cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        assert r.stdout.strip().splitlines()[-1] == want, (argv, r.stdout, r.stderr)
