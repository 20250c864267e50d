"""Tests for the wire-protocol serving front end (`repro.serve.wire`/`server`).

The contract surface:

* wire-served results are **bit-identical** to in-process service results,
  for full requests and for delta (base_key + edits) requests;
* structured errors round-trip onto the same exception classes in-process
  callers see;
* malformed traffic — oversized frames, bad magic, version mismatches —
  is answered with an error frame and cannot wedge or crash the server;
* a client disconnecting mid-request drains cleanly and leaves the server
  fully usable for other connections (concurrency-marked).
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.core import SimConfig, clear_compile_cache
from repro.core.edits import SetPinDelay
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.serve import (
    DesignRejectedError,
    ServeRequest,
    SimulationServer,
    SimulationService,
    WireClient,
)
from repro.serve.wire import (
    HEADER,
    KIND_ERROR,
    KIND_REQUEST,
    MAGIC,
    FrameTooLargeError,
    ProtocolError,
    decode_error,
    read_frame,
    write_frame,
)
from repro.testing import build_random_netlist, build_random_stimulus

DURATION = 6_000
CONFIG = SimConfig(
    clock_period=500, cycle_parallelism=4, store_waveforms=True
)


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


@pytest.fixture
def served():
    """A running server over a fresh service; yields (service, host, port)."""
    service = SimulationService(max_workers=2, queue_size=32)
    server = SimulationServer(service, host="127.0.0.1", port=0)
    server.start()
    host, port = server.address
    try:
        yield service, host, port
    finally:
        server.close()
        service.close()


def _design(seed: int, num_gates: int = 24):
    netlist = build_random_netlist(num_inputs=5, num_gates=num_gates, seed=seed)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=seed).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 100)
    return netlist, annotation, stimulus


def _request(seed: int, **overrides) -> ServeRequest:
    netlist, annotation, stimulus = _design(seed)
    fields = dict(
        netlist=netlist,
        stimulus=stimulus,
        backend="gatspi",
        annotation=annotation,
        config=CONFIG,
        duration=DURATION,
    )
    fields.update(overrides)
    return ServeRequest(**fields)


def _assert_results_bit_identical(reference, candidate, label):
    assert candidate.toggle_counts == reference.toggle_counts, label
    assert set(candidate.waveforms) == set(reference.waveforms), label
    for net, wave in reference.waveforms.items():
        assert np.array_equal(
            candidate.waveforms[net].data, wave.data
        ), f"{label}: waveform {net!r}"


# ----------------------------------------------------------------------
# Bit-identity: wire vs in-process
# ----------------------------------------------------------------------
class TestWireBitIdentity:
    def test_full_request_bit_identical_to_in_process(self, served):
        service, host, port = served
        request = _request(21)
        in_process = service.run(request)
        with WireClient(host, port) as client:
            over_wire = client.run(request)
        assert over_wire.session_key == in_process.session_key
        assert over_wire.backend == in_process.backend
        _assert_results_bit_identical(
            in_process.result, over_wire.result, "full request"
        )

    def test_delta_request_bit_identical_to_in_process(self, served):
        service, host, port = served
        base_request = _request(22)
        netlist = base_request.netlist
        gate = next(
            instance for instance in netlist.instances.values()
            if instance.cell.inputs
        )
        edits = (
            SetPinDelay(
                gate=gate.name, pin=gate.cell.inputs[0], rise=11.0, fall=13.0
            ),
        )
        with WireClient(host, port) as client:
            base = client.run(base_request)
            delta = ServeRequest(
                base_key=base.session_key,
                edits=edits,
                stimulus=base_request.stimulus,
                duration=DURATION,
                tag="wire-eco",
            )
            over_wire = client.run(delta)
        in_process = service.run(
            ServeRequest(
                base_key=base.session_key,
                edits=edits,
                stimulus=base_request.stimulus,
                duration=DURATION,
            )
        )
        assert over_wire.tag == "wire-eco"
        _assert_results_bit_identical(
            in_process.result, over_wire.result, "delta request"
        )

    def test_stats_surface_over_the_wire(self, served):
        service, host, port = served
        with WireClient(host, port) as client:
            client.run(_request(23))
            stats = client.stats()
        assert stats["completed"] >= 1
        assert stats["run_seconds_total"] > 0.0
        assert stats == service.stats()


# ----------------------------------------------------------------------
# Structured errors
# ----------------------------------------------------------------------
class TestWireErrors:
    def test_design_rejection_carries_the_report(self, served):
        _, host, port = served
        # An undriven floating output is an ERROR-severity finding; under
        # analysis="strict" admission must reject it over the wire with
        # the same exception class and an attached report.
        from repro.netlist import Netlist

        bad_netlist = Netlist("wire-floatout")
        bad_netlist.add_input("a")
        bad_netlist.add_output("y")
        bad_netlist.add_output("z")
        bad_netlist.add_instance("INV", "u0", {"A": "a", "Y": "y"})
        bad_stimulus = build_random_stimulus(bad_netlist, DURATION, seed=99)
        with WireClient(host, port) as client:
            with pytest.raises(DesignRejectedError) as excinfo:
                client.run(
                    ServeRequest(
                        netlist=bad_netlist,
                        stimulus=bad_stimulus,
                        config=CONFIG.with_updates(analysis="strict"),
                        duration=DURATION,
                    )
                )
        assert excinfo.value.report is not None
        assert excinfo.value.report.has_errors

    def test_malformed_request_payload_answers_with_protocol_error(self, served):
        _, host, port = served
        with socket.create_connection((host, port), timeout=10) as sock:
            write_frame(sock, KIND_REQUEST, {"op": "run", "request": "nonsense"})
            kind, payload = read_frame(sock)
        assert kind == KIND_ERROR
        assert isinstance(decode_error(payload), ProtocolError)

    def test_unknown_op_answers_with_protocol_error(self, served):
        _, host, port = served
        with socket.create_connection((host, port), timeout=10) as sock:
            write_frame(sock, KIND_REQUEST, {"op": "reboot"})
            kind, payload = read_frame(sock)
        assert kind == KIND_ERROR
        assert isinstance(decode_error(payload), ProtocolError)

    def test_version_mismatch_rejected(self, served):
        _, host, port = served
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(struct.pack(">2sBBI", MAGIC, 99, KIND_REQUEST, 0))
            kind, payload = read_frame(sock)
        assert kind == KIND_ERROR
        assert isinstance(decode_error(payload), ProtocolError)


# ----------------------------------------------------------------------
# Robustness (concurrency-marked)
# ----------------------------------------------------------------------
@pytest.mark.concurrency
class TestWireRobustness:
    def test_parallel_clients_each_get_their_own_results(self, served):
        """N concurrent connections, distinct designs, zero cross-talk."""
        service, host, port = served
        seeds = [31, 32, 33, 34]
        references = {
            seed: service.run(_request(seed)).result for seed in seeds
        }
        results = {}
        errors = []

        def worker(seed):
            try:
                with WireClient(host, port) as client:
                    results[seed] = client.run(_request(seed)).result
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((seed, exc))

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        for seed in seeds:
            _assert_results_bit_identical(
                references[seed], results[seed], f"client seed={seed}"
            )

    def test_oversized_frame_rejected_before_payload_read(self):
        """A header declaring a huge frame draws an error, not a buffer."""
        service = SimulationService(max_workers=1, queue_size=4)
        server = SimulationServer(
            service, host="127.0.0.1", port=0, max_frame_bytes=4096
        )
        server.start()
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    HEADER.pack(MAGIC, 1, KIND_REQUEST, 512 * 1024 * 1024)
                )
                kind, payload = read_frame(sock)
                assert kind == KIND_ERROR
                assert isinstance(decode_error(payload), FrameTooLargeError)
                # The connection is closed after a protocol poison: the
                # next read sees EOF, not a hung server.
                assert sock.recv(1) == b""
            # The server survives and serves fresh connections.
            with WireClient(host, port) as client:
                assert client.stats()["completed"] == 0
        finally:
            server.close()
            service.close()

    def test_close_wakes_the_idle_accept_thread(self):
        """Regression: ``close()`` on an idle started server returns at once.

        Closing the listening socket does not wake a thread parked in
        ``accept()`` on Linux, so ``close()`` used to sit out its 10 s join
        timeout and leave the accept thread alive behind it.
        """
        import time

        service = SimulationService(max_workers=1, queue_size=4)
        server = SimulationServer(service, host="127.0.0.1", port=0).start()
        try:
            accept_thread = server._accept_thread
            assert accept_thread is not None and accept_thread.is_alive()
            start = time.perf_counter()
            server.close()
            assert time.perf_counter() - start < 1.0
            assert not accept_thread.is_alive()
        finally:
            server.close()
            service.close()

    def test_oversized_send_rejected_client_side(self, served):
        _, host, port = served
        with WireClient(host, port, max_frame_bytes=1024) as client:
            with pytest.raises(FrameTooLargeError):
                client.run(_request(35))

    def test_mid_request_disconnect_drains_cleanly(self, served):
        """A client dying mid-frame or mid-run never wedges the server.

        Two disconnect shapes: (a) a truncated frame — header promises
        more bytes than ever arrive; (b) a full request whose client
        hangs up before reading the response.  Both handlers must drain,
        submitted work must still complete, and other connections must
        keep working.
        """
        service, host, port = served
        # (a) truncated frame: declare 4096 payload bytes, send 10, die.
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(HEADER.pack(MAGIC, 1, KIND_REQUEST, 4096) + b"x" * 10)
        sock.close()
        # (b) full request, disconnect before the response arrives.
        request = _request(36)
        sock = socket.create_connection((host, port), timeout=10)
        write_frame(sock, KIND_REQUEST, {"op": "run", "request": request})
        sock.close()
        # The abandoned run completes in the service; a healthy client
        # observes it through stats and can still run its own request.
        import time

        deadline = time.time() + 60
        with WireClient(host, port) as client:
            while time.time() < deadline:
                if client.stats()["completed"] >= 1:
                    break
                time.sleep(0.05)
            stats = client.stats()
            assert stats["completed"] >= 1
            assert stats["failed"] == 0
            response = client.run(_request(37))
        assert response.result.duration == DURATION
