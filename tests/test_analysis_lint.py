"""deco-lint: per-rule fixtures, suppression, scoping, and CLI.

Each rule has a "fires on bad code" and a "silent on good code" pair,
with the fixture paths chosen so scope matching mirrors the shipped
package layout.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (Finding, all_rules, lint_source,
                                 main, run_lint, select_rules)
from repro.errors import ConfigurationError

SIM_PATH = "src/repro/sim/fixture.py"
CORE_PATH = "src/repro/core/fixture.py"
METRICS_PATH = "src/repro/metrics/fixture.py"
OBS_PATH = "src/repro/obs/fixture.py"
SCRIPT_PATH = "examples/fixture.py"

REPO = Path(__file__).resolve().parent.parent


def codes(findings):
    return [f.code for f in findings]


class TestFramework:
    def test_rules_are_registered_in_code_order(self):
        rule_codes = [r.code for r in all_rules()]
        assert rule_codes == sorted(rule_codes)
        assert rule_codes == ["DL001", "DL002", "DL003", "DL004",
                              "DL005", "DL006", "DL007", "DL008",
                              "DL009", "DL010", "DL011"]

    def test_every_rule_has_docs(self):
        for rule in all_rules():
            assert rule.summary, rule.code
            assert rule.__doc__, rule.code
            assert rule.code in rule.__doc__

    def test_select_unknown_code_raises(self):
        with pytest.raises(ConfigurationError, match="DL999"):
            select_rules(["DL999"])

    def test_select_degenerate_selector_raises(self):
        # "" / "," / whitespace selectors must not silently select
        # zero rules and report a clean run.
        for degenerate in ([""], [" "], ["", " "]):
            with pytest.raises(ConfigurationError,
                               match="no rule codes"):
                select_rules(degenerate)

    def test_select_mixed_good_and_empty_still_selects(self):
        rules = select_rules(["DL001", ""])
        assert [r.code for r in rules] == ["DL001"]

    def test_syntax_error_reports_dl000(self):
        findings = run_lint([str(REPO / "tests" / "__init__.py")])
        assert findings == []

    def test_finding_format(self):
        f = Finding(path="a.py", line=3, col=7, code="DL001",
                    message="nope")
        assert f.format() == "a.py:3:7: DL001 nope"

    def test_out_of_package_gets_every_rule(self):
        src = "import time\nt = time.time()\n"
        assert codes(lint_source(src, SCRIPT_PATH)) == ["DL001"]

    def test_scope_excludes_other_packages(self):
        src = "import time\nt = time.time()\n"
        assert lint_source(src, METRICS_PATH) == []


class TestSuppression:
    def test_line_suppression(self):
        src = ("import time\n"
               "t = time.time()  # decolint: disable=DL001\n")
        assert lint_source(src, SIM_PATH) == []

    def test_line_suppression_is_per_code(self):
        src = ("import time\n"
               "t = time.time()  # decolint: disable=DL002\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL001"]

    def test_file_suppression(self):
        src = ("# decolint: disable-file=DL001\n"
               "import time\n"
               "a = time.time()\n"
               "b = time.monotonic()\n")
        assert lint_source(src, SIM_PATH) == []

    def test_all_keyword(self):
        src = ("import time\n"
               "t = time.time()  # decolint: disable=all\n")
        assert lint_source(src, SIM_PATH) == []


class TestDL001WallClock:
    def test_time_time_fires(self):
        src = "import time\nt = time.time()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["DL001"]

    def test_from_import_alias_fires(self):
        src = ("from time import perf_counter as pc\n"
               "t = pc()\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL001"]

    def test_datetime_now_fires(self):
        src = ("import datetime\n"
               "t = datetime.datetime.now()\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL001"]

    def test_unseeded_random_fires(self):
        src = "import random\nx = random.random()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["DL001"]

    def test_unseeded_default_rng_fires(self):
        src = "import numpy\nrng = numpy.random.default_rng()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["DL001"]

    def test_legacy_numpy_global_draw_fires(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(lint_source(src, SIM_PATH)) == ["DL001"]

    def test_seeded_constructions_pass(self):
        src = ("import random\n"
               "import numpy as np\n"
               "r = random.Random(7)\n"
               "g = np.random.default_rng(7)\n")
        assert lint_source(src, SIM_PATH) == []

    def test_sim_now_passes(self):
        src = ("def f(sim):\n"
               "    return sim.now\n")
        assert lint_source(src, SIM_PATH) == []


class TestDL002UnorderedIteration:
    def test_for_over_set_literal_fires(self):
        src = ("for x in {1, 2, 3}:\n"
               "    print(x)\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL002"]

    def test_for_over_set_variable_fires(self):
        src = ("def f(items):\n"
               "    pending = set(items)\n"
               "    for x in pending:\n"
               "        print(x)\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL002"]

    def test_comprehension_over_set_call_fires(self):
        src = "out = [x for x in set(range(3))]\n"
        assert codes(lint_source(src, SIM_PATH)) == ["DL002"]

    def test_dict_keys_iteration_fires(self):
        src = ("def f(d):\n"
               "    for k in d.keys():\n"
               "        print(k)\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL002"]

    def test_list_of_set_fires(self):
        src = "xs = list({1, 2})\n"
        assert codes(lint_source(src, SIM_PATH)) == ["DL002"]

    def test_sorted_set_passes(self):
        src = ("def f(items):\n"
               "    for x in sorted(set(items)):\n"
               "        print(x)\n")
        assert lint_source(src, SIM_PATH) == []

    def test_dict_iteration_passes(self):
        src = ("def f(d):\n"
               "    for k in d:\n"
               "        print(k)\n")
        assert lint_source(src, SIM_PATH) == []

    def test_membership_test_passes(self):
        src = ("def f(seen, x):\n"
               "    return x in seen\n")
        assert lint_source(src, SIM_PATH) == []


class TestDL003FloatEquality:
    def test_float_literal_eq_fires(self):
        src = ("def f(x):\n"
               "    return x == 0.5\n")
        assert codes(lint_source(src, METRICS_PATH)) == ["DL003"]

    def test_division_ne_fires(self):
        src = ("def f(a, b, c):\n"
               "    return a / b != c\n")
        assert codes(lint_source(src, METRICS_PATH)) == ["DL003"]

    def test_float_call_eq_fires(self):
        src = ("def f(a, b):\n"
               "    return float(a) == b\n")
        assert codes(lint_source(src, METRICS_PATH)) == ["DL003"]

    def test_isclose_passes(self):
        src = ("import math\n"
               "def f(a, b):\n"
               "    return math.isclose(a / 2, b)\n")
        assert lint_source(src, METRICS_PATH) == []

    def test_int_eq_passes(self):
        src = ("def f(n):\n"
               "    return n == 3\n")
        assert lint_source(src, METRICS_PATH) == []

    def test_not_applied_in_sim(self):
        src = ("def f(x):\n"
               "    return x == 0.5\n")
        assert lint_source(src, SIM_PATH) == []


class TestDL004UnguardedTracer:
    def test_unguarded_event_fires(self):
        src = ("def f(self):\n"
               "    self.tracer.event('msg_send', 0.0, 'n')\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL004"]

    def test_unguarded_inc_fires(self):
        src = ("def f(tracer):\n"
               "    tracer.inc('messages', 'node')\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL004"]

    def test_guarded_call_passes(self):
        src = ("def f(self):\n"
               "    tracer = self.ctx.tracer\n"
               "    if tracer.enabled:\n"
               "        tracer.event('msg_send', 0.0, 'n')\n"
               "        tracer.inc('messages', 'n')\n")
        assert lint_source(src, SIM_PATH) == []

    def test_guard_does_not_cover_else(self):
        src = ("def f(tracer):\n"
               "    if tracer.enabled:\n"
               "        pass\n"
               "    else:\n"
               "        tracer.event('msg_send', 0.0, 'n')\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL004"]

    def test_non_tracer_receiver_passes(self):
        src = ("def f(registry):\n"
               "    registry.inc('counter')\n")
        assert lint_source(src, SIM_PATH) == []

    def test_not_applied_outside_hot_packages(self):
        src = ("def f(tracer):\n"
               "    tracer.event('msg_send', 0.0, 'n')\n")
        assert lint_source(src, OBS_PATH) == []


class TestDL005SharedMutableState:
    def test_mutable_default_arg_fires(self):
        src = ("def f(items=[]):\n"
               "    return items\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL005"]

    def test_mutable_kwonly_default_fires(self):
        src = ("def f(*, cache={}):\n"
               "    return cache\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL005"]

    def test_module_global_mutated_fires(self):
        src = ("_CACHE = {}\n"
               "def put(k, v):\n"
               "    _CACHE[k] = v\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL005"]

    def test_module_global_method_mutation_fires(self):
        src = ("_SEEN = []\n"
               "def note(x):\n"
               "    _SEEN.append(x)\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL005"]

    def test_import_time_registry_passes(self):
        src = ("_TABLE = {'a': 1}\n"
               "def get(k):\n"
               "    return _TABLE[k]\n")
        assert lint_source(src, CORE_PATH) == []

    def test_shadowed_local_passes(self):
        src = ("_CACHE = {}\n"
               "def f():\n"
               "    _CACHE = {}\n"
               "    _CACHE['k'] = 1\n"
               "    return _CACHE\n")
        assert lint_source(src, CORE_PATH) == []

    def test_none_default_passes(self):
        src = ("def f(items=None):\n"
               "    items = [] if items is None else items\n"
               "    return items\n")
        assert lint_source(src, CORE_PATH) == []

    def test_applies_everywhere_in_package(self):
        src = "def f(x=[]):\n    return x\n"
        assert codes(lint_source(src, METRICS_PATH)) == ["DL005"]


class TestDL006WireSizeArithmetic:
    def test_size_table_arithmetic_fires(self):
        src = ("from repro.runtime.serialization import EVENT_BYTES\n"
               "def size(fmt, n):\n"
               "    return n * EVENT_BYTES[fmt]\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL006"]

    def test_layout_constant_arithmetic_fires(self):
        src = ("from repro.wire.format import WIRE_HEADER_BYTES\n"
               "def overhead(msgs):\n"
               "    return msgs * WIRE_HEADER_BYTES + 8\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL006"]

    def test_attribute_access_arithmetic_fires(self):
        src = ("import repro.runtime.serialization as ser\n"
               "x = 3 * ser.SCALAR_BYTES\n")
        assert codes(lint_source(src, SIM_PATH)) == ["DL006"]

    def test_one_finding_per_formula(self):
        src = ("from repro.wire.format import (WIRE_EVENT_BYTES,\n"
               "                               WIRE_HEADER_BYTES)\n"
               "total = WIRE_HEADER_BYTES + 24 * WIRE_EVENT_BYTES\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL006"]

    def test_wire_layer_is_exempt(self):
        src = ("WIRE_HEADER_BYTES = 32\n"
               "def frame_size(n):\n"
               "    return WIRE_HEADER_BYTES + 24 * n\n")
        assert lint_source(src, "src/repro/wire/format.py") == []
        assert lint_source(
            src, "src/repro/runtime/serialization.py") == []

    def test_fires_in_out_of_package_scripts(self):
        src = ("from repro.runtime.serialization import EVENT_BYTES\n"
               "from repro.runtime.serialization import WireFormat\n"
               "x = 3 * EVENT_BYTES[WireFormat.BINARY]\n")
        assert codes(lint_source(src, SCRIPT_PATH)) == ["DL006"]

    def test_plain_reads_pass(self):
        src = ("from repro.runtime.serialization import EVENT_BYTES\n"
               "def lookup(fmt):\n"
               "    return EVENT_BYTES[fmt]\n")
        assert lint_source(src, CORE_PATH) == []

    def test_sizeof_message_calls_pass(self):
        src = ("from repro.core.protocol import sizeof_message\n"
               "def cost(msgs, fmt):\n"
               "    return sum(sizeof_message(m, fmt) for m in msgs)\n")
        assert lint_source(src, CORE_PATH) == []


class TestDL007SimImportBoundary:
    BASELINES_PATH = "src/repro/baselines/fixture.py"

    def test_import_from_fires_in_core(self):
        src = ("from repro.sim.kernel import Simulator\n"
               "def build():\n"
               "    return Simulator()\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL007"]

    def test_plain_import_fires_in_baselines(self):
        src = "import repro.sim.topology as topo\n"
        assert codes(lint_source(
            src, self.BASELINES_PATH)) == ["DL007"]

    def test_package_import_fires(self):
        src = "from repro.sim import topology\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DL007"]

    def test_runtime_imports_pass(self):
        src = ("from repro.runtime.api import ROOT_NAME\n"
               "from repro.runtime.node import RuntimeNode, Timeout\n"
               "from repro.runtime.serialization import message_size\n")
        assert lint_source(src, CORE_PATH) == []

    def test_similar_prefix_passes(self):
        # `repro.simulate` is not `repro.sim` — prefix matching must
        # respect the module boundary.
        src = "from repro.simulate import thing\n"
        assert lint_source(src, CORE_PATH) == []

    def test_sim_and_scripts_are_out_of_scope(self):
        src = "from repro.sim.kernel import Simulator\n"
        assert lint_source(src, SIM_PATH) == []
        assert lint_source(src, SCRIPT_PATH) == []

    def test_type_checking_imports_pass(self):
        src = ("from typing import TYPE_CHECKING\n"
               "if TYPE_CHECKING:\n"
               "    from repro.sim.topology import StarTopology\n"
               "def f(t: 'StarTopology') -> None:\n"
               "    pass\n")
        assert lint_source(src, CORE_PATH) == []

    def test_suppression(self):
        src = ("from repro.sim.kernel import Simulator"
               "  # decolint: disable=DL007\n")
        assert lint_source(src, CORE_PATH) == []


class TestDL008ViewMutation:
    def test_subscript_write_through_view_fires(self):
        src = ("def f(buf):\n"
               "    v = buf.get_range(0, 10)\n"
               "    v[0] = 1.0\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL008"]

    def test_attribute_chain_propagates_taint(self):
        src = ("def f(batch):\n"
               "    view = batch._view(batch.ids, batch.values, 0, 4)\n"
               "    vals = view.values\n"
               "    vals[2] = 0.0\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL008"]

    def test_augmented_assign_fires(self):
        src = ("def f(buf):\n"
               "    v = buf.lift_range(0, 5)\n"
               "    v += 1.0\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL008"]

    def test_mutating_method_fires(self):
        src = ("def f(buf):\n"
               "    v = buf.get_range(0, 10)\n"
               "    v.sort()\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL008"]

    def test_out_kwarg_fires(self):
        src = ("import numpy as np\n"
               "def f(buf):\n"
               "    v = buf.get_range(0, 10)\n"
               "    np.add(v, 1.0, out=v)\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL008"]

    def test_tuple_assignment_taints_elementwise(self):
        src = ("def f(buf, other):\n"
               "    a, b = buf.lift_range(0, 5), other\n"
               "    a.fill(0)\n"
               "    b.fill(0)\n")
        findings = lint_source(src, CORE_PATH)
        assert codes(findings) == ["DL008"]
        assert findings[0].line == 3

    def test_copy_breaks_taint(self):
        src = ("def f(buf):\n"
               "    v = buf.get_range(0, 10)\n"
               "    c = v.copy()\n"
               "    c[0] = 1.0\n")
        assert lint_source(src, CORE_PATH) == []

    def test_read_only_use_passes(self):
        src = ("def f(buf):\n"
               "    v = buf.get_range(0, 10)\n"
               "    return v.sum(), v[3]\n")
        assert lint_source(src, CORE_PATH) == []

    def test_fires_in_scripts_too(self):
        src = ("def f(buf):\n"
               "    v = buf.get_range(0, 10)\n"
               "    v[0] = 1.0\n")
        assert codes(lint_source(src, SCRIPT_PATH)) == ["DL008"]

    def test_unrelated_mutation_passes(self):
        src = ("def f(xs):\n"
               "    xs.sort()\n"
               "    xs[0] = 1\n")
        assert lint_source(src, CORE_PATH) == []


class TestDL009EnvReads:
    SERVE_PATH = "src/repro/serve/coordinator.py"

    def test_environ_get_fires(self):
        src = ("import os\n"
               "flag = os.environ.get('REPRO_WIRE_CODEC')\n")
        assert codes(lint_source(src, self.SERVE_PATH)) == ["DL009"]

    def test_getenv_through_constant_fires(self):
        src = ("import os\n"
               "FLAG = 'REPRO_FOO'\n"
               "def f():\n"
               "    return os.getenv(FLAG)\n")
        assert codes(lint_source(src, self.SERVE_PATH)) == ["DL009"]

    def test_subscript_read_fires(self):
        src = ("import os\n"
               "jobs = os.environ['REPRO_JOBS']\n")
        assert codes(lint_source(src, self.SERVE_PATH)) == ["DL009"]

    def test_membership_probe_fires(self):
        src = ("import os\n"
               "have = 'REPRO_JOBS' in os.environ\n")
        assert codes(lint_source(src, self.SERVE_PATH)) == ["DL009"]

    def test_store_passes(self):
        src = ("import os\n"
               "os.environ['REPRO_JOBS'] = '2'\n")
        assert lint_source(src, self.SERVE_PATH) == []

    def test_non_repro_key_passes(self):
        src = ("import os\n"
               "path = os.environ.get('PATH')\n")
        assert lint_source(src, self.SERVE_PATH) == []

    def test_bootstrap_modules_exempt(self):
        from repro.analysis.rules import NoEnvReadOutsideBootstrap
        # A path and a worker count: neither selects a behaviour, and
        # no entry may be added that does.
        assert NoEnvReadOutsideBootstrap.exempt == (
            "repro/core/workload", "repro/sweep")
        src = ("import os\n"
               "jobs = os.environ.get('REPRO_JOBS')\n")
        assert lint_source(src, "src/repro/core/workload.py") == []
        assert lint_source(src, "src/repro/sweep.py") == []
        assert codes(lint_source(src, "src/repro/serve/worker.py")) \
            == ["DL009"]

    def test_behaviour_switch_in_core_fires(self):
        src = ("import os\n"
               "caching = os.environ.get('REPRO_AGG_INDEX') != '0'\n")
        for path in ("src/repro/core/agg_index.py",
                     "src/repro/core/multiquery.py",
                     "src/repro/wire/codec.py"):
            assert codes(lint_source(src, path)) == ["DL009"]

    def test_out_of_package_scripts_exempt(self):
        src = ("import os\n"
               "quick = os.environ.get('REPRO_BENCH_QUICK')\n")
        assert lint_source(src, SCRIPT_PATH) == []


class TestDL010BlockingInMerge:
    COORD_PATH = "src/repro/serve/coordinator.py"
    MERGE_PATH = "src/repro/serve/merge.py"

    def test_sleep_in_merge_method_fires(self):
        src = ("import time\n"
               "class C:\n"
               "    def _merge_epoch(self, queues):\n"
               "        time.sleep(0.1)\n")
        assert codes(lint_source(src, self.COORD_PATH)) == ["DL010"]

    def test_framing_transfer_fires(self):
        src = ("from repro.serve import framing\n"
               "class C:\n"
               "    def _apply_ops(self, sock):\n"
               "        framing.send_frame(sock, 1, {}, b'')\n")
        assert codes(lint_source(src, self.COORD_PATH)) == ["DL010"]

    def test_transport_recv_fires(self):
        src = ("class C:\n"
               "    def _merge_epoch(self, name):\n"
               "        return self.transport.recv(name)\n")
        assert codes(lint_source(src, self.COORD_PATH)) == ["DL010"]

    def test_non_merge_methods_pass_in_coordinator(self):
        src = ("import time\n"
               "class C:\n"
               "    def _collect_epoch(self):\n"
               "        time.sleep(0.1)\n")
        assert lint_source(src, self.COORD_PATH) == []

    def test_whole_merge_module_is_a_merge_section(self):
        src = ("import time\n"
               "def pop_next(queues):\n"
               "    time.sleep(0.1)\n")
        assert codes(lint_source(src, self.MERGE_PATH)) == ["DL010"]

    def test_pure_merge_code_passes(self):
        src = ("def _merge_epoch(queues):\n"
               "    return min(queues, key=lambda q: q[0])\n")
        assert lint_source(src, self.COORD_PATH) == []

    def test_other_modules_out_of_scope(self):
        # time.sleep still trips DL001 in sim scope / scripts; DL010
        # itself must stay silent outside the serve merge path.
        src = ("import time\n"
               "def _merge_epoch():\n"
               "    time.sleep(0.1)\n")
        assert "DL010" not in codes(lint_source(src, SIM_PATH))
        assert "DL010" not in codes(lint_source(src, SCRIPT_PATH))


class TestDL011PerQueryLiftLoops:
    def test_fires_on_query_loop_with_lift_range(self):
        src = ("def feed(self, batch):\n"
               "    for q in self.queries:\n"
               "        out = q.buffer.lift_range(0, 10)\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL011"]

    def test_fires_on_scalar_lift_and_query_ish_iterable(self):
        src = ("def feed(pipes):\n"
               "    for pipe in query_pipes:\n"
               "        v = pipe.scalar_lift(0, 10)\n")
        assert codes(lint_source(src, CORE_PATH)) == ["DL011"]

    def test_fires_in_baselines_scope(self):
        src = ("def serve(queries, buf):\n"
               "    for query in queries:\n"
               "        buf.lift_range(0, query.length)\n")
        path = "src/repro/baselines/fixture.py"
        assert codes(lint_source(src, path)) == ["DL011"]

    def test_line_suppression_honored(self):
        src = ("def feed(self, batch):\n"
               "    for q in self.queries:"
               "  # decolint: disable=DL011\n"
               "        out = q.buffer.lift_range(0, 10)\n")
        assert lint_source(src, CORE_PATH) == []

    def test_silent_on_non_query_loops(self):
        src = ("def feed(self, batch):\n"
               "    for buf in self.buffers:\n"
               "        out = buf.lift_range(0, 10)\n")
        assert lint_source(src, CORE_PATH) == []

    def test_silent_on_query_loop_without_lifts(self):
        src = ("def admit(self, queries):\n"
               "    for q in queries:\n"
               "        self.registry.add(q)\n")
        assert lint_source(src, CORE_PATH) == []

    def test_out_of_scope_paths_silent(self):
        src = ("def feed(self, batch):\n"
               "    for q in self.queries:\n"
               "        out = q.buffer.lift_range(0, 10)\n")
        assert "DL011" not in codes(
            lint_source(src, "src/repro/serve/fixture.py"))
        assert "DL011" not in codes(lint_source(src, SCRIPT_PATH))

    def test_multiquery_suppression_is_honest(self):
        """The engine's unshared A/B loop carries the only sanctioned
        suppression — strip it and DL011 fires on that exact loop."""
        path = REPO / "src" / "repro" / "core" / "multiquery.py"
        src = path.read_text()
        assert lint_source(src, str(path)) == []
        stripped = src.replace("  # decolint: disable=DL011", "")
        assert stripped != src
        findings = lint_source(stripped, str(path))
        assert codes(findings) == ["DL011"]


class TestShippedTreeIsClean:
    """The merged tree must lint clean — the CI gate in miniature."""

    def test_src_repro_clean(self):
        findings = run_lint([str(REPO / "src" / "repro")])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_examples_and_benchmarks_clean(self):
        findings = run_lint([str(REPO / "examples"),
                             str(REPO / "benchmarks")])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestCli:
    def test_exit_zero_on_clean(self, capsys):
        assert main([str(REPO / "src" / "repro" / "errors.py")]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DL001" in out

    def test_report_only_exits_zero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad), "--report-only"]) == 0

    def test_usage_error_exits_two(self, tmp_path):
        assert main([str(tmp_path / "missing"), "--select",
                     "DL123"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DL001", "DL002", "DL003", "DL004", "DL005",
                     "DL006"):
            assert code in out

    def test_select_subset(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n"
                       "def f(x=[]):\n    return x\n")
        assert main([str(bad), "--select", "DL003"]) == 0
        assert main([str(bad), "--select", "DL001"]) == 1

    def test_repro_cli_integration(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            capture_output=True, text=True, cwd=str(REPO),
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin"})
        assert proc.returncode == 0
        assert "DL001" in proc.stdout
