"""Property-based tests on core component invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.queues import OutputPort, SubmitResult
from repro.net.link import Channel
from repro.net.node import Node, P2PAttachment
from repro.sim.engine import Simulator
from repro.tokens.capability import InvalidTokenError, TOKEN_BYTES, TokenMint
from repro.transport.flowcontrol import DeliveryMask
from repro.viper.flags import effective_priority


class _Sink(Node):
    def __init__(self, sim):
        super().__init__(sim, "sink")
        self.delivered = []

    def on_packet(self, packet, inport, tx):
        self.delivered.append(packet)


def _make_port(sim, buffer_bytes=10**9):
    sink = _Sink(sim)
    channel = Channel(sim, rate_bps=1e6, propagation_delay=0.0, name="ch")
    rx = P2PAttachment(sink, 1, Channel(sim, 1e6, 0.0), peer_name="tx")
    sink.attach(1, rx)
    channel.dst_attachment = rx
    sender = Node(sim, "sender")
    attachment = P2PAttachment(sender, 1, channel, peer_name="sink")
    sender.attach(1, attachment)
    return OutputPort(sim, attachment, buffer_bytes=buffer_bytes), sink


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_queue_conservation_and_priority_order(priorities):
    """Every submitted packet is delivered exactly once (no preemptive
    priorities, huge buffer) and queued packets leave in priority order."""
    sim = Simulator()
    port, sink = _make_port(sim)
    for index, priority in enumerate(priorities):
        result = port.submit((index, priority), 125, 10, priority=priority)
        assert result in (SubmitResult.SENT, SubmitResult.QUEUED)
    sim.run()
    assert len(sink.delivered) == len(priorities)
    assert sorted(i for i, _p in sink.delivered) == list(range(len(priorities)))
    # After the first (immediately transmitted) packet, deliveries are
    # sorted by effective priority, FIFO within a priority.
    rest = sink.delivered[1:]
    keys = [(-effective_priority(p), i) for i, p in rest]
    assert keys == sorted(keys)


@given(st.binary(min_size=1, max_size=32), st.integers(0, 255),
       st.integers(0, 7), st.integers(0, (1 << 32) - 1))
@settings(max_examples=100)
def test_minted_tokens_always_verify(secret, port, priority, account):
    mint = TokenMint(secret, issuer="prop")
    token = mint.mint(port=port, account=account, max_priority=priority)
    claims = mint.verify(token)
    assert claims.port == port
    assert claims.account == account


@given(st.integers(0, TOKEN_BYTES - 1), st.integers(1, 255))
@settings(max_examples=100)
def test_any_single_byte_mutation_breaks_the_seal(position, xor):
    """Flipping any byte of a token invalidates it — body bytes change
    the claims out from under the seal, seal bytes break the MAC."""
    mint = TokenMint(b"prop-secret", issuer="prop")
    token = bytearray(mint.mint(port=3, account=9, max_priority=5))
    token[position] ^= xor
    try:
        mint.verify(bytes(token))
        verified = True
    except InvalidTokenError:
        verified = False
    assert not verified


@given(st.integers(1, 32), st.sets(st.integers(0, 31)))
@settings(max_examples=100)
def test_delivery_mask_partition(count, marks):
    mask = DeliveryMask(count)
    valid_marks = {m for m in marks if m < count}
    for m in valid_marks:
        mask.bits |= 1 << m
    received = {i for i in range(count) if mask.has(i)}
    missing = set(mask.missing())
    assert received == valid_marks
    assert received | missing == set(range(count))
    assert received & missing == set()
    assert mask.complete == (len(valid_marks) == count)


@given(st.lists(st.tuples(st.integers(100, 2000), st.integers(0, 5)),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_flow_limiter_releases_everything_once(holds):
    """Held packets are released exactly once, in FIFO order."""
    from repro.core.congestion import FlowLimiter

    sim = Simulator()
    limiter = FlowLimiter(sim, ("x", 1), rate_bps=1e6,
                          burst_bytes=500, expiry=1e9)
    released = []
    for index, (size, _junk) in enumerate(holds):
        if not limiter.try_consume(size):
            limiter.hold(size, lambda i=index: released.append(i))
    sim.run(until=60.0)
    assert released == sorted(released)
    assert len(released) == len(set(released))
    assert limiter.backlog == 0
