"""Keep-alive transport: one connection per client, no Nagle stall.

Every case runs against a live ReproService (or, for the retry rule, a
scripted listener) and counts TCP connections rather than timing them:
``get_request`` is wrapped to record each accepted socket, and
``shutdown_request`` to record each connection the server finished.
"""

import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import GridClient, GridServiceError, ReproService, ServiceApp
from repro.cli import build_parser

from .test_app import fake_payload


class Live:
    """A started service plus the sockets it accepted and finished."""

    def __init__(self, runner=fake_payload, quota: int = 0) -> None:
        app = ServiceApp(
            workers=1, queue_depth=8, cache_bytes=1024 * 1024,
            pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
            runner=runner, quota_per_client=quota,
        )
        self.service = ReproService(port=0, app=app)
        self.accepted = []
        self.finished = []
        self._finished_changed = threading.Condition()
        httpd = self.service.httpd
        get_request, shutdown_request = httpd.get_request, httpd.shutdown_request

        def counting_get_request():
            request = get_request()
            self.accepted.append(request[0])
            return request

        def counting_shutdown_request(request):
            shutdown_request(request)
            with self._finished_changed:
                self.finished.append(request)
                self._finished_changed.notify_all()

        httpd.get_request = counting_get_request
        httpd.shutdown_request = counting_shutdown_request
        self.service.start()
        self.url = self.service.url
        self.clients = []

    def client(self, **kwargs) -> GridClient:
        client = GridClient(self.url, **kwargs)
        self.clients.append(client)
        return client

    def wait_finished(self, request) -> bool:
        """Block until the server's handler for ``request`` is done."""
        with self._finished_changed:
            return self._finished_changed.wait_for(
                lambda: request in self.finished, timeout=30.0)


@pytest.fixture
def serve():
    started = []

    def start(**kwargs):
        live = Live(**kwargs)
        started.append(live)
        return live

    yield start
    for live in started:
        for client in live.clients:
            client.close()
        live.service.close(drain=True, timeout=30.0)


def test_one_client_sends_every_call_over_one_connection(serve):
    live = serve()
    client = live.client()
    first = client.submit({"seed": 1})
    view = client.wait(first.run_id, poll_s=0.01)
    calls = [
        client.health,
        lambda: client.submit({"seed": 1}),
        lambda: client.run(view.run_id),
        lambda: client.runs(limit=1),
        lambda: client.report(view.run_id, "ops", limit=2),
        lambda: client.events(view.run_id),
        client.metrics,
        client.metrics_text,
        client.alerts,
    ]
    answers = [calls[i % len(calls)]() for i in range(20)]
    assert answers[1].dedup == "cached" and answers[1].run_id == view.run_id
    assert answers[4].total == 5
    assert len(live.accepted) == 1


def test_accepted_socket_has_nagle_off(serve):
    """Headers and body leave in two sends; with Nagle on, a reused
    connection waits for the peer's delayed ACK between them."""
    live = serve()
    client = live.client()
    client.health()  # the connection stays open while the client holds it
    (accepted,) = live.accepted
    assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    client.close()


def test_error_answers_keep_the_envelope_and_the_connection(serve):
    gate = threading.Event()
    live = serve(runner=lambda config, progress: (
        gate.wait(30.0), fake_payload(config))[1], quota=1)
    client = live.client()
    try:
        with pytest.raises(GridServiceError) as missing:
            client.run(987654)
        assert (missing.value.status, missing.value.code) == (404, "not_found")
        assert "/v1/runs" in missing.value.hint
        assert missing.value.retry_after is None
        assert client.submit({"seed": 1}, client_id="greedy").dedup == "new"
        with pytest.raises(GridServiceError) as over_quota:
            client.submit({"seed": 2}, client_id="greedy")
        assert over_quota.value.status == 429
        assert over_quota.value.code == "quota_exceeded"
        assert over_quota.value.retry_after >= 1
        assert client.health().status == "ok"
    finally:
        gate.set()
    assert len(live.accepted) == 1


def test_a_connection_the_server_closed_is_replaced_once(serve):
    live = serve()
    client = live.client()
    client.health()
    (first,) = live.accepted
    first.shutdown(socket.SHUT_RDWR)
    assert live.wait_finished(first)
    assert client.health().status == "ok"
    assert len(live.accepted) == 2


def test_a_refused_fresh_connection_raises():
    with socket.socket() as bound:  # bound, not listening: refuses
        bound.bind(("127.0.0.1", 0))
        client = GridClient("http://127.0.0.1:%d" % bound.getsockname()[1])
        with pytest.raises(ConnectionRefusedError):
            client.health()


def test_threads_sharing_a_client_get_their_own_answers(serve):
    live = serve()
    client = live.client()
    start = threading.Barrier(4)

    def own_runs(seed):
        start.wait(30.0)
        seen = []
        for i in range(5):
            view = client.wait(client.submit({"seed": seed + i}).run_id,
                               poll_s=0.001)
            rows = client.report_rows(view.run_id, "ops", page_size=2)
            seen.append((view.summary["seed"], {row["seed"] for row in rows}))
        return seen

    seeds = [100, 200, 300, 400]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(own_runs, seeds))
    finally:
        sys.setswitchinterval(interval)
    assert answers == [[(seed + i, {seed + i}) for i in range(5)]
                       for seed in seeds]
    assert 1 <= len(live.accepted) <= 4


def test_closing_the_client_lets_the_handler_thread_exit(serve):
    live = serve()
    client = live.client()
    client.health()
    client.close()
    assert live.wait_finished(live.accepted[0])
    with GridClient(live.url) as scoped:
        scoped.health()
    assert live.wait_finished(live.accepted[1])
    # The client stays usable after close(), on a new connection.
    assert client.health().status == "ok"
    assert len(live.accepted) == 3


def test_closing_the_service_ends_idle_connections():
    live = Live()
    client = live.client()
    client.health()
    live.service.close(drain=True, timeout=30.0)
    assert live.wait_finished(live.accepted[0])
    client.close()


def test_top_poll_loop_reuses_one_connection(serve):
    gate = threading.Event()
    live = serve(runner=lambda config, progress: (
        gate.wait(30.0), fake_payload(config))[1])
    polls = threading.Semaphore(0)
    respond = live.service.app.respond

    def counting_respond(method, path, query, body):
        if path.endswith("/events"):
            polls.release()
        return respond(method, path, query, body)

    live.service.app.respond = counting_respond
    run_id = live.client().submit({"seed": 9}).run_id
    lines = []
    args = build_parser().parse_args(
        ["top", str(run_id), "--url", live.url, "--poll", "--interval", "0.01"])
    top = threading.Thread(target=args.func, args=(args,),
                           kwargs={"out": lines.append})
    top.start()
    try:
        for _ in range(3):  # three polls of the running run
            assert polls.acquire(timeout=30.0)
    finally:
        gate.set()
    top.join(timeout=30.0)
    assert not top.is_alive()
    assert lines == [f"run {run_id} finished (done)"]
    assert len(live.accepted) == 2  # the submitting client's, and top's


def test_alerts_url_reads_the_live_rules(serve):
    live = serve()
    lines = []
    args = build_parser().parse_args(["alerts", "--url", live.url])
    assert args.func(args, out=lines.append) == 0
    table, summary = lines
    assert "queue-backlog" in table and "quota-pressure" in table
    assert summary.startswith("\n0 of ") and summary.endswith("rule(s) firing")


# -- the retry rule, against a scripted listener ------------------------------

OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      b"Content-Length: 2\r\n\r\n{}")


def _read_request(conn: socket.socket) -> None:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return
        data += chunk


@pytest.fixture
def scripted():
    """``start(connections)`` serves the n-th accepted connection by the
    n-th list of actions: ``answer`` (read a request, send 200 ``{}``),
    ``drop`` (read a request, close without a status line) or ``stall``
    (read a request, never answer).  Returns the listener, so a test can
    check that no further connection is waiting on it."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    release = threading.Event()
    threads = []

    def start(connections):
        def serve():
            for actions in connections:
                conn, _ = listener.accept()
                with conn:
                    for action in actions:
                        _read_request(conn)
                        if action == "answer":
                            conn.sendall(OK)
                        elif action == "stall":
                            release.wait(30.0)
                        else:
                            break  # drop

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return listener

    yield start
    release.set()
    for thread in threads:
        thread.join(timeout=30.0)
    listener.close()


def _nothing_waiting(listener: socket.socket) -> bool:
    listener.setblocking(False)
    try:
        conn, _ = listener.accept()
    except BlockingIOError:
        return True
    conn.close()
    return False


def _url(listener: socket.socket) -> str:
    return "http://127.0.0.1:%d" % listener.getsockname()[1]


def test_a_fresh_connection_closed_early_is_not_retried(scripted):
    listener = scripted([["drop"]])
    with GridClient(_url(listener)) as client:
        with pytest.raises(ConnectionResetError):
            client.metrics()
    assert _nothing_waiting(listener)


def test_a_reused_connection_is_retried_only_once(scripted):
    listener = scripted([["answer", "drop"], ["drop"]])
    with GridClient(_url(listener)) as client:
        assert client.metrics() == {}
        with pytest.raises(ConnectionResetError):
            client.metrics()
    assert _nothing_waiting(listener)


def test_a_timeout_on_a_reused_connection_is_not_retried(scripted):
    listener = scripted([["answer", "stall"]])
    with GridClient(_url(listener), timeout=0.5) as client:
        assert client.metrics() == {}
        with pytest.raises(TimeoutError):
            client.metrics()
    assert _nothing_waiting(listener)
