"""Exception types for the VIPER protocol implementation."""


class ViperError(Exception):
    """Base class for VIPER protocol errors."""


class DecodeError(ViperError):
    """Raised when a byte buffer is not a well-formed VIPER structure."""


#: Canonical public name for the decode failure: every decoder in
#: :mod:`repro.viper` is *total* over arbitrary bytes and signals
#: malformed input exclusively through this one exception type — never
#: an ``AssertionError``, ``IndexError`` or ``ValueError`` escape.  The
#: live router relies on this to drop-and-count undecodable frames
#: instead of crashing.
ViperDecodeError = DecodeError


class SegmentLimitError(ViperError):
    """Raised when a route exceeds VIPER's 48-segment maximum (§2.3)."""
