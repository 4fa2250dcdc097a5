"""The simulator's packet: a live frame's bytes plus simulation metadata.

The simulator carries every packet as the datagram the live overlay
would put on a socket — ``preamble ++ segments ++ alternate blocks ++
payload ++ trailer`` (:mod:`repro.live.frames`) — in a buffer the packet
owns, and a router hop is the live router's own in-place move on those
bytes (:func:`~repro.live.frames.forward_into`).  The payload region
holds what the host was handed to send — a transport PDU is the
codec's bytes (:mod:`repro.transport.codec`), checked by CRC at the
far end.  Every size the simulator clocks is the VIPER body, ``len()``
of the frame less its preamble — what
:func:`~repro.viper.packet.encode_packet` gives the same packet.  A sim
frame never carries the traced option (a sampled packet's trace id is
metadata, like its hop log), so its preamble is always
:data:`~repro.live.frames.PREAMBLE_BYTES` long.
"""

from __future__ import annotations

import copy
from typing import List, Optional

from repro.live.frames import (
    PREAMBLE_BYTES, SEG_COUNT_OFFSET, decode_preamble,
    encode_preamble_into, payload_offset,
)
from repro.viper.errors import ViperDecodeError
from repro.viper.wire import PORT_OFFSET, PacketView, segment_span

#: Where the VIPER body starts in every sim frame.
HEADER = PREAMBLE_BYTES

#: Spare bytes a buffer is built with beyond twice its frame's header:
#: each router strips a segment and appends one of about its size, so
#: the moves seldom slide the frame and almost never grow the buffer.
TAILROOM = 64


class FramePacket:
    """One packet in the simulator: its frame and its metadata.

    The frame is the preamble, ``body`` (the segments and alternate
    blocks a host sends; a multicast clone passes the rest of a frame
    whole) and ``data``, the payload a host sends.  The metadata —
    identity, timestamps, the hop log, the §2.2 feed-forward hint and
    trace id — is not on the wire.
    """

    __slots__ = (
        "view", "packet_id", "created_at", "source", "hops_taken",
        "hop_log", "trace_id", "feed_forward_load", "lead_bytes",
        "__weakref__",
    )

    def __init__(
        self, seg_count: int, payload_size: int, body: bytes, data: bytes = b"",
        packet_id: int = 0, created_at: float = 0.0,
        source: str = "", hops_taken: int = 0,
        hop_log: Optional[List[str]] = None, trace_id: int = 0,
    ) -> None:
        at = HEADER + len(body)
        size = at + len(data)
        buffer = bytearray(size + len(body) + TAILROOM)
        encode_preamble_into(buffer, 0, seg_count, payload_size)
        buffer[HEADER:at] = body
        buffer[at:size] = data
        self.view = PacketView(buffer, 0, size)  # sirlint: disable=SIR009 -- over the packet's own bytearray, no ring slot
        self.packet_id = packet_id
        self.created_at = created_at
        self.source = source
        self.hops_taken = hops_taken
        self.hop_log = hop_log if hop_log is not None else []
        self.trace_id = trace_id
        #: "Feed forward" load hint (§2.2): packets queued behind this
        #: one at its previous router, stamped at transmit start.
        self.feed_forward_load = 0
        #: The leading segment's length, once found (None: not yet);
        #: whatever moves, truncates or copies the frame resets it.
        self.lead_bytes: Optional[int] = None

    @property
    def seg_count(self) -> int:
        view = self.view
        return view.buffer[view.start + SEG_COUNT_OFFSET]

    def wire_size(self) -> int:
        """The VIPER body's bytes — the size a medium clocks."""
        view = self.view
        return view.end - view.start - HEADER

    def leading_port(self) -> Optional[int]:
        """The leading segment's port; None when the route is spent."""
        view = self.view
        if not view.buffer[view.start + SEG_COUNT_OFFSET]:
            return None
        return view.buffer[view.start + HEADER + PORT_OFFSET]

    def decision_prefix_bytes(self) -> int:
        """Bytes a router must receive before it can switch the packet:
        the whole first segment, held in the loopback register while
        the out-going stream begins with the second (§2.1)."""
        view = self.view
        first = view.start + HEADER
        if not view.buffer[view.start + SEG_COUNT_OFFSET]:
            return view.end - first
        lead = self.lead_bytes
        if lead is None:
            lead = self.lead_bytes = segment_span(view.buffer, first) - first
        return lead

    def grow(self) -> PacketView:
        """Double the buffer, the frame at its head: for a move the
        buffer had no room for.  Returns the frame's new view."""
        view = self.view
        size = view.end - view.start
        buffer = bytearray(2 * len(view.buffer))
        buffer[:size] = view.mem
        self.view = PacketView(buffer, 0, size)  # sirlint: disable=SIR009 -- over the packet's own bytearray, no ring slot
        return self.view

    def __deepcopy__(self, memo) -> "FramePacket":
        clone = copy.copy(self)
        view = self.view
        clone.view = PacketView(bytearray(view.buffer), view.start, view.end)
        clone.hop_log = list(self.hop_log)
        clone.lead_bytes = None
        return clone

    def corrupted_copy(self, rng) -> "FramePacket":
        """A bit-error rendition of this packet (no header checksum, §4.1).

        Corruption is *delivered* rather than dropped: the payload's
        middle byte is inverted, and half the time the leading port
        octet takes a random value too (possible misrouting).  The
        transport's CRC-32 finds the first, its entity check what
        misrouting delivers.
        """
        clone = copy.deepcopy(self)
        clone.feed_forward_load = 0
        view = clone.view
        mem = view.mem
        try:
            preamble = decode_preamble(mem)
            at = payload_offset(mem, preamble) + preamble.payload_len // 2
            if preamble.payload_len and at < len(mem):
                mem[at] ^= 0xFF
        except ViperDecodeError:
            pass  # a frame damaged past walking keeps its payload
        if clone.seg_count and rng.random() < 0.5:
            view.buffer[view.start + HEADER + PORT_OFFSET] = rng.randrange(0, 256)
        return clone
