"""The entry points' PYTHONPATH step: Ray workers inherit it and must
import pdfrust_ray, whatever the variable held before. No Ray needed."""

import os

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
