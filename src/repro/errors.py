"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this package derive from
:class:`ReproError`, so callers can catch package-level failures with a
single ``except`` clause while letting programming errors propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TraceError(ReproError):
    """A trace is malformed or used inconsistently."""


class PcapError(ReproError):
    """A pcap file could not be parsed or written."""


class PcapFormatError(PcapError):
    """A pcap file is malformed (truncated or corrupt).

    Carries the byte ``offset`` at which parsing failed, so operators
    can locate the corruption in an archive file; ``str()`` renders it.
    """

    def __init__(self, message: str, offset: int = 0) -> None:
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class StreamError(ReproError):
    """The streaming engine was misconfigured or fed invalid input."""


class EngineError(ReproError):
    """An execution engine or kernel was requested that does not exist."""


class DetectorError(ReproError):
    """An anomaly detector was misconfigured or failed to run."""


class GraphError(ReproError):
    """The similarity graph or community structure is invalid."""


class CombinerError(ReproError):
    """A combination strategy received inconsistent inputs."""


class RuleMiningError(ReproError):
    """Association-rule mining received invalid parameters or data."""


class LabelingError(ReproError):
    """Labeling heuristics or taxonomy assignment failed."""


class ServeError(ReproError):
    """The serving layer (daemon, feeds, scheduler, HTTP) misbehaved."""


class CodecError(ReproError):
    """A column bundle (:mod:`repro.codec`) is malformed.

    Raised for bad magic, unknown formats, truncated or unparsable
    descriptors, missing descriptor keys, and arrays whose declared
    extent or alignment does not fit the bundle's data.
    """


class WarehouseError(ReproError):
    """The label warehouse is missing, corrupt, or misused.

    Raised for unreadable manifests, truncated or checksum-failing
    segment files, queries against dates that were never ingested, and
    recompute requests the stored metadata cannot satisfy.
    """
