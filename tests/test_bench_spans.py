"""perfbench/spans.py: every traced name exists where the tracer patches it.

``Tracer.installed()`` looks each site up with ``vars(owner)[attr]``, so a
renamed or deleted function would break a traced benchmark run with a
KeyError; this test fails first.
"""

import importlib.util
from pathlib import Path

from rabosim import cli, federation, hypergrad, masking, rng
from rabosim.problems import logistic, quadratic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def test_every_target_is_an_attribute_of_its_owner():
    sites = spans.targets(cli, federation, hypergrad, masking, quadratic,
                          logistic, rng)
    assert sites
    missing = [(name, attr) for name, owner, attr in sites
               if attr not in vars(owner)]
    assert missing == []
