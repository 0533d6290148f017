"""Shared fixtures and per-test timeout enforcement for the test suite.

A hanging test must fail fast instead of freezing the whole tier-1 run
(a lexer infinite loop once did exactly that).  When the ``pytest-timeout``
plugin is installed (CI installs it), it is given a default of
``DEFAULT_TEST_TIMEOUT_SECONDS``; otherwise a SIGALRM-based fallback below
enforces the same budget, so the suite is hang-proof even in bare
environments.  Individual tests can override the budget with
``@pytest.mark.timeout(seconds)`` under either mechanism.
"""

from __future__ import annotations

import contextlib
import signal
import threading

import pytest

from repro.designs import (
    arbiter2,
    arbiter2_directed_test,
    arbiter4,
    b01,
    cex_small,
    counter_block,
    fetch_stage,
    handshake_block,
    wb_stage,
)

#: Per-test wall-clock budget; generous — the whole suite runs in seconds.
DEFAULT_TEST_TIMEOUT_SECONDS = 30.0

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

_CAN_USE_SIGALRM = hasattr(signal, "SIGALRM")


def pytest_configure(config):
    if _HAVE_PYTEST_TIMEOUT:
        # Wire the default into pytest-timeout unless the user passed one
        # (--timeout=0 is the documented way to disable it — respect it).
        if getattr(config.option, "timeout", None) is None:
            config.option.timeout = DEFAULT_TEST_TIMEOUT_SECONDS
    else:
        # The marker is normally registered by the plugin; keep it valid
        # (and honoured, see the hook below) without it.
        config.addinivalue_line(
            "markers",
            "timeout(seconds): fail the test if it runs longer than the "
            "given number of seconds (SIGALRM fallback when pytest-timeout "
            "is not installed)",
        )


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    return DEFAULT_TEST_TIMEOUT_SECONDS


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if (_HAVE_PYTEST_TIMEOUT or not _CAN_USE_SIGALRM
            or threading.current_thread() is not threading.main_thread()):
        return (yield)
    seconds = _timeout_for(item)
    if seconds <= 0:
        return (yield)

    def _on_alarm(signum, frame):
        pytest.fail(f"test exceeded the {seconds:g}s timeout", pytrace=False)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: Inline Verilog used across parser/simulator tests (the paper's arbiter).
ARBITER2_SOURCE = """
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk) begin
    if (rst) begin
      gnt0 <= 0;
      gnt1 <= 0;
    end else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
  end
endmodule
"""


#: Designs whose registers are stuck at their reset value under every
#: input: ``stuck`` can only be ANDed down from 0, and ``a``/``b`` read
#: each other so they are stuck only jointly.  ``track``/``live`` are
#: ordinary live registers next to them.
STUCK_REGISTER_SOURCES = {
    "one_register": """
module one_register(clk, rst, en, din, out, obs);
  input clk, rst, en;
  input [1:0] din;
  output out, obs;
  reg stuck;
  reg [1:0] track;
  assign out = stuck | (track == 2);
  assign obs = stuck & en;
  always @(posedge clk) begin
    if (rst) begin
      stuck <= 0;
      track <= 0;
    end else begin
      stuck <= stuck & en;
      track <= din;
    end
  end
endmodule
""",
    "mutual_pair": """
module mutual_pair(clk, rst, a_in, keep, out);
  input clk, rst, a_in, keep;
  output out;
  reg a, b, live;
  assign out = a | b | live;
  always @(posedge clk) begin
    if (rst) begin
      a <= 0;
      b <= 0;
      live <= 0;
    end else begin
      a <= b & keep;
      b <= a;
      live <= a_in;
    end
  end
endmodule
""",
}

#: The stuck registers of each ``STUCK_REGISTER_SOURCES`` design.
STUCK_REGISTERS = {"one_register": ("stuck",), "mutual_pair": ("a", "b")}


@pytest.fixture(params=sorted(STUCK_REGISTER_SOURCES))
def stuck_register_design(request):
    """``(module, stuck_register_names)`` for each stuck-register design."""
    from repro.hdl.parser import parse_module

    name = request.param
    return parse_module(STUCK_REGISTER_SOURCES[name]), STUCK_REGISTERS[name]


@pytest.fixture
def arbiter2_module():
    return arbiter2()


@pytest.fixture
def arbiter2_seed():
    return arbiter2_directed_test()


@pytest.fixture
def arbiter4_module():
    return arbiter4()


@pytest.fixture
def cex_small_module():
    return cex_small()


@pytest.fixture
def counter_module():
    return counter_block()


@pytest.fixture
def handshake_module():
    return handshake_block()


@pytest.fixture
def fetch_module():
    return fetch_stage()


@pytest.fixture
def wb_module():
    return wb_stage()


@pytest.fixture
def b01_module():
    return b01()


@pytest.fixture
def arbiter2_source():
    return ARBITER2_SOURCE


@pytest.fixture
def answer_then_die(monkeypatch):
    """Make every supervised worker exit right after sending an answer,
    and the supervisor look only once the worker is gone — the race a
    queue feeder thread used to lose answers to."""
    import multiprocessing
    import os
    import time
    from multiprocessing import connection

    send, wait = connection.Connection.send, connection.wait

    def send_then_die(connection, message):
        send(connection, message)
        if multiprocessing.parent_process() is not None and message[0] == "ok":
            os._exit(0)

    def late_wait(handles, timeout=None):
        if wait(handles, timeout):
            time.sleep(0.3)  # the worker that just answered exits meanwhile
        return wait(handles, 0)

    monkeypatch.setattr(connection.Connection, "send", send_then_die)
    monkeypatch.setattr(connection, "wait", late_wait)


def _rowwise_build_dataset(engine, output, bit=None):
    from repro.mining import MiningDataset

    return MiningDataset(engine.module, output, window=engine.config.window,
                         output_bit=bit,
                         include_internal_state=engine.config.include_internal_state,
                         synth=engine.synth)


@pytest.fixture
def rowwise_miner():
    """Context-manager factory that swaps in the row-wise reference miner.

    Inside ``with rowwise_miner():`` every :class:`GoldMine` (and so every
    :class:`CoverageClosure`) builds a row-wise
    :class:`~repro.mining.MiningDataset`; ``create_decision_tree``
    dispatches on the dataset's type, so the whole pipeline then mines
    with the row-wise trees the columnar miner is held identical to.
    """
    from repro.core.goldmine import GoldMine

    @contextlib.contextmanager
    def seam():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GoldMine, "build_dataset", _rowwise_build_dataset)
            yield

    return seam
