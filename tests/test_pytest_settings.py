import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_pytest(directory, files):
    """Exit code and output of pytest run on ``files`` (name -> source),
    written to ``directory``, with the repository's pytest settings."""
    for name, source in files.items():
        (directory / name).write_text(textwrap.dedent(source))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(directory), str(directory)],
        cwd=directory, capture_output=True, text=True, timeout=300,
    )
    return result.returncode, result.stdout + result.stderr


def test_a_failing_hypothesis_test_does_not_stop_the_suite(tmp_path):
    # hypothesis imports its patch writer when a @given test fails; under the
    # suite's warnings-as-errors setting that import must not abort the run
    code, output = _run_pytest(tmp_path, {
        "test_a_given.py": """
            from hypothesis import given, settings
            from hypothesis import strategies as st

            @settings(max_examples=5, database=None)
            @given(st.integers())
            def test_fails(n):
                assert n != n
        """,
        "test_b_plain.py": "def test_passes():\n    pass\n",
    })
    assert code == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output


def test_any_other_warning_fails_its_test(tmp_path):
    code, output = _run_pytest(tmp_path, {
        "test_warns.py": """
            import warnings

            def test_deprecated():
                warnings.warn("a deprecated call", DeprecationWarning)

            def test_runtime():
                warnings.warn("an overflow", RuntimeWarning)
        """,
    })
    assert code == 1, output
    assert "2 failed" in output
