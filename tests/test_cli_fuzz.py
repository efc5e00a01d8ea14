"""Mutation property of the command line on mesh files.

One line or one field of a small generated mesh is deleted, duplicated,
swapped or replaced by an awkward token, and ``report``, ``verify`` and
``solve`` run on the result through ``cli.main`` with warnings as errors.
Whatever the edit, nothing is raised and the exit code means what README
says: 0, 3 (a method assumption) or 4 (bad input, naming its line), and 2
only for a verify check that prints FAIL or a solve that does not converge.
"""

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.cli import main

BASES = []   # mesh file texts
for _mesh in (ddfem.gen_structured_square(2, p=1), ddfem.gen_structured_square(1, p=2),
              ddfem.gen_structured_cube(1, p=1), ddfem.gen_structured_cube(1, p=2),
              ddfem.gen_structured_square(2, p=1, dirichlet="none")):
    _buf = io.StringIO()
    ddfem.save_mesh(_mesh, _buf)
    BASES.append(_buf.getvalue())
TOKENS = ["0", "-1", "-0", "nan", "inf", "1e200", "1e-200", "1e308", "1e-320",
          "99999999999", "", "x", "0x10", "1_0"]
LINE_EDITS = ["delete", "duplicate", "swap"]
FIELD_EDITS = ["drop", "append", "swap", "replace"]


def _mutate(data, text: str) -> str:
    lines = text.splitlines()
    i = data.draw(st.integers(1, len(lines) - 1), label="line")
    how = data.draw(st.sampled_from(LINE_EDITS + FIELD_EDITS), label="edit")
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap" and data.draw(st.booleans(), label="whole lines"):
        j = data.draw(st.integers(1, len(lines) - 1), label="other line")
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tok = lines[i].split()
        j = data.draw(st.integers(0, len(tok) - 1), label="field")
        if how == "drop":
            del tok[j]
        elif how == "append":
            tok.append(data.draw(st.sampled_from(TOKENS), label="token"))
        elif how == "swap":
            k = data.draw(st.integers(0, len(tok) - 1), label="other field")
            tok[j], tok[k] = tok[k], tok[j]
        else:
            tok[j] = data.draw(st.sampled_from(TOKENS), label="token")
        lines[i] = " ".join(tok)
    return "\n".join(lines) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit(command: str, code: int, stdout: str, stderr: str) -> None:
    """The exit code is one README lists, and an exit 4 names a line."""
    if code == 2:
        assert ((command == "verify" and "\nFAIL " in "\n" + stdout)
                or (command == "solve" and "did not converge" in stderr)), stderr
    else:
        assert code in (0, 3, 4), (code, stderr)
    if code == 4:
        assert re.search(r"\bline \d+: ", stderr), stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_mesh_exits_cleanly(workdir, data):
    text = _mutate(data, data.draw(st.sampled_from(BASES), label="base"))
    mesh = workdir / "mutated.mesh"
    mesh.write_text(text, encoding="utf-8")
    for argv in (["report", "--mesh", str(mesh)],
                 ["verify", "--mesh", str(mesh)],
                 ["solve", "--mesh", str(mesh), "--out", str(workdir / "x.sol")]):
        check_exit(argv[0], *_run(argv))


SQUARE = ("ddfem-mesh v1 d=2 p=1\nnode 1 0 0 1\nnode 2 1 0 1\nnode 3 0 1 1\n"
          "node 4 1 1 1\nelem 1 1 2 4\nelem 2 1 4 3\n")


# Falsifying examples of the property at the parent commit, where each ended
# in a RuntimeWarning (an error here) or a false "not positive" message.  The
# node reference ones are among test_mesh's index rejections.
@pytest.mark.parametrize("text,why", [
    # A needle element, then one whose Jacobian overflows.
    (SQUARE.replace("node 2 1 0 1", "node 2 1e200 0 1"),
     "1e+200 at Gauss point 1 is too small for the element's size (degenerate element)"),
    (SQUARE.replace("node 2 1 0 1", "node 2 1e308 0 1"),
     "1e+308 at Gauss point 1 is too small for the element's size (degenerate element)"),
    (BASES[1].replace("node 1 0.5 0.5 0", "node 1 0.5 1e308 0"),
     "inf at Gauss point 1 is not finite (coordinates too large or not finite)"),
], ids=["coordinate-1e200", "coordinate-1e308", "jacobian-overflow"])
def test_huge_coordinates_exit_3(workdir, text, why):
    mesh = workdir / "huge.mesh"
    mesh.write_text(text, encoding="utf-8")
    assert _run(["report", "--mesh", str(mesh)]) == (
        3, "", f"assumption violated: element 1: Jacobian determinant {why}\n")
