"""Tests for the repo's static-analysis subsystem (repro.devtools)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    Finding,
    lint_paths,
    lint_source,
)
from repro.devtools.rules import all_rules, rules_by_id, select_rules

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Path that places a fixture inside a simulation-critical package, so
#: the D-series rules apply.
SIM_PATH = "src/repro/sim/_fixture.py"
#: Path inside the package but outside the sim-critical subset.
ANALYSIS_PATH = "src/repro/analysis/_fixture.py"
#: Path outside the repro package entirely.
SCRIPT_PATH = "scripts/fixture.py"


def check(source: str, path: str = SIM_PATH, rule: str = None) -> list:
    rules = select_rules([rule]) if rule else None
    return lint_source(textwrap.dedent(source), path, rules=rules)


def rule_ids(findings) -> set:
    return {f.rule_id for f in findings}


class TestRegistry:
    def test_all_series_present(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert {"D101", "D102", "D103", "D104", "D105", "D106", "D107"} <= ids
        assert {"M201", "M202", "M203"} <= ids
        assert {"Q301", "Q302", "Q303", "Q304"} <= ids

    def test_rules_have_metadata(self):
        for rule in all_rules():
            assert rule.rule_id and rule.title and rule.rationale

    def test_select_unknown_rule(self):
        with pytest.raises(KeyError):
            select_rules(["Z999"])

    def test_select_is_case_insensitive(self):
        (rule,) = select_rules(["d102"])
        assert rule.rule_id == "D102"


class TestD101BannedRandomImport:
    def test_flags_import(self):
        assert "D101" in rule_ids(check("import random\n", rule="D101"))

    def test_flags_from_import(self):
        assert "D101" in rule_ids(check("from random import choice\n", rule="D101"))

    def test_clean_outside_sim_packages(self):
        assert not check("import random\n", path=ANALYSIS_PATH, rule="D101")

    def test_other_imports_pass(self):
        assert not check("import numpy as np\n", rule="D101")


class TestD102DefaultRng:
    BAD = """
    import numpy as np

    def build(seed):
        return np.random.default_rng(seed)
    """
    GOOD = """
    from repro.sim.rng import make_generator

    def build(seed):
        return make_generator(seed)
    """

    def test_flags_default_rng(self):
        assert "D102" in rule_ids(check(self.BAD, rule="D102"))

    def test_factory_passes(self):
        assert not check(self.GOOD, rule="D102")

    def test_clean_outside_sim_packages(self):
        assert not check(self.BAD, path=SCRIPT_PATH, rule="D102")


class TestD103LegacyGlobalNumpyRandom:
    def test_flags_module_level_draw(self):
        src = """
        import numpy as np

        def jitter(xs, rng):
            np.random.shuffle(xs)
        """
        assert "D103" in rule_ids(check(src, rule="D103"))

    def test_constructors_pass(self):
        src = """
        import numpy as np

        def build(seed):
            return np.random.Generator(np.random.PCG64(seed))
        """
        assert not check(src, rule="D103")


class TestD104WallClock:
    def test_flags_time_time(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert "D104" in rule_ids(check(src, rule="D104"))

    def test_flags_datetime_now(self):
        src = """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
        assert "D104" in rule_ids(check(src, rule="D104"))

    def test_clean_in_analysis(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert not check(src, path=ANALYSIS_PATH, rule="D104")


class TestD105RngParameter:
    def test_flags_drawing_function_without_rng(self):
        src = """
        def sample(values):
            from repro.sim.rng import make_generator
            g = make_generator()
            return g.choice(values)
        """
        assert "D105" in rule_ids(check(src, rule="D105"))

    def test_rng_parameter_passes(self):
        src = """
        def sample(values, rng):
            return rng.choice(values)
        """
        assert not check(src, rule="D105")

    def test_seed_parameter_passes(self):
        src = """
        from repro.sim.rng import make_generator

        def sample(values, seed):
            return make_generator(seed).choice(values)
        """
        assert not check(src, rule="D105")

    def test_private_function_exempt(self):
        src = """
        def _sample(values):
            return values.rng.choice(values)
        """
        assert not check(src, rule="D105")


class TestD106DocstringDrift:
    def test_flags_default_rng_example(self):
        src = '''
        """Module.

        Example::

            rng = np.random.default_rng(7)
        """
        '''
        assert "D106" in rule_ids(check(src, rule="D106"))

    def test_factory_example_passes(self):
        src = '''
        """Module.

        Example::

            from repro.sim.rng import make_generator
            rng = make_generator(7)
        """
        '''
        assert not check(src, rule="D106")

    def test_non_repro_file_exempt(self):
        src = '''
        """rng = np.random.default_rng(7)"""
        '''
        assert not check(src, path=SCRIPT_PATH, rule="D106")


class TestD107DensePerSlotAllocation:
    def test_flags_dense_alloc_in_run_slot(self):
        src = """
        import numpy as np

        class Engine:
            def _run_slot(self, t, n, c):
                return np.zeros((c, n, n), dtype=np.float32)
        """
        assert "D107" in rule_ids(check(src, rule="D107"))

    def test_flags_dense_alloc_in_block_loop(self):
        # The grid engine's per-block body and its draw steps are hot
        # paths too.
        src = """
        import numpy as np

        class Engine:
            def _run_block(self, t, remaining, n):
                return np.zeros((n, n), dtype=bool)

            def _draw_block(self, k, n):
                return np.empty((k, n, n))
        """
        findings = check(src, rule="D107")
        assert [f.rule_id for f in findings] == ["D107", "D107"]

    def test_attribute_dims_flagged(self):
        src = """
        import numpy as np

        class Engine:
            def _run_slot(self, t):
                return np.empty((self._n, self._n))
        """
        assert "D107" in rule_ids(check(src, rule="D107"))

    def test_flags_dense_alloc_in_async_frame_path(self):
        # The asynchronous engine's per-frame body and its block decode
        # of frame decisions are hot paths too.
        src = """
        import numpy as np

        class AsyncEngine:
            def _begin_frame(self, nid):
                return np.zeros((self._n, self._n), dtype=bool)

        def _draw_frames(raw, channels, n):
            return np.empty((n, n))
        """
        findings = check(src, rule="D107")
        assert [f.rule_id for f in findings] == ["D107", "D107"]

    def test_linear_alloc_passes(self):
        src = """
        import numpy as np

        class Engine:
            def _run_slot(self, t, n, c):
                return np.zeros((c, n), dtype=np.float32)
        """
        assert not check(src, rule="D107")

    def test_outside_hot_path_passes(self):
        src = """
        import numpy as np

        class Engine:
            def __init__(self, n, c):
                self._aud = np.zeros((c, n, n), dtype=np.float32)
        """
        assert not check(src, rule="D107")

    def test_non_sim_package_exempt(self):
        src = """
        import numpy as np

        def _run_slot(n):
            return np.zeros((n, n))
        """
        assert not check(src, path=ANALYSIS_PATH, rule="D107")

    def test_pragma_disables(self):
        src = """
        import numpy as np

        class Engine:
            def _run_slot(self, t, n):
                return np.zeros((n, n))  # lint: disable=D107
        """
        assert not check(src, rule="D107")


class TestM201TableMutation:
    BAD = """
    from repro.core.base import SynchronousProtocol

    class Cheater(SynchronousProtocol):
        def decide_slot(self, local_slot):
            self._table.record_hello(None, 0.0)
            return None
    """
    GOOD = """
    from repro.core.base import SynchronousProtocol

    class Honest(SynchronousProtocol):
        def on_receive(self, message, heard_at, channel=None):
            return self._table.record_hello(message, heard_at, channel)

        def decide_slot(self, local_slot):
            known = self._table.neighbor_ids()
            return len(known)
    """

    def test_flags_mutation_in_decide_slot(self):
        assert "M201" in rule_ids(check(self.BAD, rule="M201"))

    def test_sanctioned_hooks_pass(self):
        assert not check(self.GOOD, rule="M201")

    def test_rebinding_table_flagged(self):
        src = """
        from repro.core.base import SynchronousProtocol

        class Rebinder(SynchronousProtocol):
            def decide_slot(self, local_slot):
                self._table = None
        """
        assert "M201" in rule_ids(check(src, rule="M201"))

    def test_non_protocol_class_exempt(self):
        src = """
        class Bookkeeper:
            def tick(self):
                self._table.update({})
        """
        assert not check(src, rule="M201")


class TestM202LiteralProbability:
    def test_flags_literal_return(self):
        src = """
        from repro.core.base import SynchronousProtocol

        class Fixed(SynchronousProtocol):
            def transmit_probability(self, local_slot):
                return 0.3
        """
        assert "M202" in rule_ids(check(src, rule="M202"))

    def test_derived_probability_passes(self):
        src = """
        from repro.core.base import SynchronousProtocol

        class Derived(SynchronousProtocol):
            def transmit_probability(self, local_slot):
                return min(0.5, self.channel_count / float(self._delta_est))
        """
        assert not check(src, rule="M202")

    def test_zero_and_one_allowed(self):
        src = """
        class Edge:
            def transmit_probability(self, local_slot):
                if local_slot == 0:
                    return 0
                return 1
        """
        assert not check(src, rule="M202")


class TestM203OwnRandomSource:
    def test_flags_protocol_building_generator(self):
        src = """
        import numpy as np
        from repro.core.base import SynchronousProtocol

        class Rogue(SynchronousProtocol):
            def decide_slot(self, local_slot):
                rng = np.random.default_rng(local_slot)
                return rng.random()
        """
        assert "M203" in rule_ids(check(src, rule="M203"))

    def test_injected_stream_passes(self):
        src = """
        from repro.core.base import SynchronousProtocol

        class Good(SynchronousProtocol):
            def decide_slot(self, local_slot):
                return self._rng.random()
        """
        assert not check(src, rule="M203")


class TestQ301MutableDefault:
    def test_flags_list_default(self):
        assert "Q301" in rule_ids(
            check("def f(xs=[]):\n    return xs\n", rule="Q301")
        )

    def test_flags_dict_call_default(self):
        assert "Q301" in rule_ids(
            check("def f(xs=dict()):\n    return xs\n", rule="Q301")
        )

    def test_flags_kwonly_default(self):
        assert "Q301" in rule_ids(
            check("def f(*, xs={}):\n    return xs\n", rule="Q301")
        )

    def test_none_default_passes(self):
        assert not check("def f(xs=None):\n    return xs\n", rule="Q301")

    def test_frozenset_default_passes(self):
        assert not check(
            "def f(xs=frozenset({1})):\n    return xs\n", rule="Q301"
        )


class TestQ302BareExcept:
    def test_flags_bare_except(self):
        src = """
        def f():
            try:
                return 1
            except:
                return 2
        """
        assert "Q302" in rule_ids(check(src, rule="Q302"))

    def test_typed_except_passes(self):
        src = """
        def f():
            try:
                return 1
            except ValueError:
                return 2
        """
        assert not check(src, rule="Q302")


class TestQ303MissingAll:
    def test_flags_missing_symbol(self):
        src = """
        __all__ = ["visible"]

        def visible():
            pass

        def hidden_but_public():
            pass
        """
        findings = check(src, rule="Q303")
        assert "hidden_but_public" in findings[0].message

    def test_flags_module_without_all(self):
        src = """
        def visible():
            pass
        """
        findings = check(src, rule="Q303")
        assert findings and "no __all__" in findings[0].message

    def test_follows_append(self):
        src = """
        __all__ = ["first"]

        def first():
            pass

        def second():
            pass

        __all__.append("second")
        """
        assert not check(src, rule="Q303")

    def test_underscore_names_exempt(self):
        src = """
        __all__ = []

        def _private():
            pass
        """
        assert not check(src, rule="Q303")

    def test_non_repro_file_exempt(self):
        src = """
        def anything():
            pass
        """
        assert not check(src, path=SCRIPT_PATH, rule="Q303")


class TestQ304CauseDroppingBroadExcept:
    BAD = """
    def f():
        try:
            return work()
        except Exception:
            raise RuntimeError("work failed")
    """

    def test_flags_cause_dropping_reraise(self):
        findings = check(self.BAD, rule="Q304")
        assert "Q304" in rule_ids(findings)

    def test_flags_broad_base_exception(self):
        src = """
        def f():
            try:
                return work()
            except BaseException:
                raise RuntimeError("work failed")
        """
        assert "Q304" in rule_ids(check(src, rule="Q304"))

    def test_chained_raise_passes(self):
        src = """
        def f():
            try:
                return work()
            except Exception as exc:
                raise RuntimeError("work failed") from exc
        """
        assert not check(src, rule="Q304")

    def test_wrapper_referencing_cause_passes(self):
        # The supervisor idiom: the caught exception is folded into the
        # raised expression, so the cause travels even without ``from``.
        src = """
        def f():
            try:
                return work()
            except Exception as exc:
                raise _wrap_failure(exc, context="campaign")
        """
        assert not check(src, rule="Q304")

    def test_bare_reraise_passes(self):
        src = """
        def f():
            try:
                return work()
            except Exception:
                cleanup()
                raise
        """
        assert not check(src, rule="Q304")

    def test_narrow_except_passes(self):
        src = """
        def f():
            try:
                return work()
            except ValueError:
                raise RuntimeError("bad value")
        """
        assert not check(src, rule="Q304")

    def test_nested_function_not_attributed_to_handler(self):
        src = """
        def f():
            try:
                return work()
            except Exception:
                def fallback():
                    raise RuntimeError("inner")
                return fallback
        """
        assert not check(src, rule="Q304")

    def test_nested_handler_judged_on_its_own(self):
        # The inner handler chains; the outer one never raises. Neither
        # should be flagged — the walk must not leak raises across
        # handler boundaries.
        src = """
        def f():
            try:
                return work()
            except Exception:
                try:
                    return retry()
                except Exception as exc:
                    raise RuntimeError("retry failed") from exc
        """
        assert not check(src, rule="Q304")

    def test_clean_outside_sim_critical_packages(self):
        assert not check(self.BAD, path=ANALYSIS_PATH, rule="Q304")

    def test_pragma_suppresses(self):
        src = """
        def f():
            try:
                return work()
            except Exception:
                raise RuntimeError("work failed")  # lint: disable=Q304
        """
        assert not check(src, rule="Q304")


class TestPragmas:
    def test_line_pragma_suppresses(self):
        src = "import random  # lint: disable=D101\n"
        assert not check(src, rule="D101")

    def test_line_pragma_is_rule_specific(self):
        src = "import random  # lint: disable=D104\n"
        assert "D101" in rule_ids(check(src, rule="D101"))

    def test_file_pragma_suppresses_everywhere(self):
        src = """
        # lint: disable=Q303
        def visible():
            pass
        """
        assert not check(src, rule="Q303")

    def test_pragma_accepts_multiple_ids(self):
        src = "import random  # lint: disable=D104, D101\n"
        assert not check(src, rule="D101")


class TestEngine:
    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "ok.py").write_text("X = 1\n")
        (tmp_path / "bad.py").write_text("def f(\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert len(report.errors) == 1
        assert not report.ok

    def test_findings_sorted_and_serializable(self, tmp_path):
        target = tmp_path / "src" / "repro" / "sim" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nimport time\n\nT = time.time()\n")
        report = lint_paths([tmp_path])
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        payload = json.loads(report.to_json())
        assert payload["files_checked"] == 1
        assert all("rule" in f for f in payload["findings"])

    def test_finding_format(self):
        f = Finding("D101", "x.py", 3, 0, "msg")
        assert f.format_text() == "x.py:3:0: D101 msg"


class TestShippedTree:
    def test_src_is_clean(self):
        report = lint_paths([REPO_ROOT / "src"])
        assert report.findings == []
        assert report.errors == []

    def test_tests_are_clean(self):
        report = lint_paths([REPO_ROOT / "tests"])
        assert report.findings == []


class TestCli:
    def test_lint_src_exits_zero(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_flags_violation(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "D101" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n")
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "D101"

    def test_rule_filter(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n")
        assert main(["lint", "--rule", "Q302", str(tmp_path)]) == 0

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "Z999", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in rules_by_id():
            assert rule in out
