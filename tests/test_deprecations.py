"""The engine knob has one spelling: ``--engine`` / ``engine=``.

The pre-engine-layer ``--backend`` / ``backend=`` aliases are gone:
the old spellings are rejected outright, and the remaining spellings
never warn.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cli import build_parser
from repro.core.estimator import SimilarityEstimator
from repro.detectors.kl import KLDetector
from repro.errors import DetectorError
from repro.labeling.mawilab import MAWILabPipeline
from repro.session import LabelingSession


class TestBackendKwarg:
    def test_backend_kwarg_is_rejected(self):
        with pytest.raises(TypeError):
            MAWILabPipeline(backend="python")
        with pytest.raises(TypeError):
            LabelingSession(backend="python")
        # Detectors take free-form tuning parameters; an unknown one is
        # a typed error and never enters an ensemble fingerprint.
        with pytest.raises(DetectorError, match="backend"):
            KLDetector(backend="python")

    def test_no_warning_without_backend(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            MAWILabPipeline(engine="python")
            SimilarityEstimator()
            LabelingSession()


class TestBackendCliAlias:
    def test_backend_flag_is_an_argparse_error(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["label", "x.pcap", "--backend", "python"])
        assert "--backend" in capsys.readouterr().err

    def test_engine_flag_does_not_warn(self):
        parser = build_parser()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            args = parser.parse_args(
                ["label", "x.pcap", "--engine", "python"]
            )
        assert args.engine == "python"
