"""Tests for TriangleMesh and the visualization-client model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResultPacket
from repro.des import Environment
from repro.viz import TriangleMesh
from repro.viz.client import (
    FrameRateModel,
    InteractionCriteria,
    VisualizationClient,
)


def unit_triangle(offset=0.0):
    return np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float) + offset


# ------------------------------------------------------------------ mesh


def test_empty_mesh():
    m = TriangleMesh()
    assert m.is_empty()
    assert m.n_triangles == 0
    assert m.area() == 0.0
    assert m.bounds() is None


def test_mesh_validation():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((4, 3)))  # not multiple of 3
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), {"a": np.zeros(2)})


def test_mesh_area_and_normals():
    m = TriangleMesh(unit_triangle())
    assert m.n_triangles == 1
    assert m.area() == pytest.approx(0.5)
    np.testing.assert_allclose(m.normals()[0], [0, 0, 1])


def test_mesh_bounds():
    m = TriangleMesh(np.vstack([unit_triangle(), unit_triangle(2.0)]))
    b = m.bounds()
    np.testing.assert_allclose(b[0], [0, 0, 0])
    np.testing.assert_allclose(b[1], [3, 3, 2])


def test_merge_combines_and_keeps_common_attributes():
    m1 = TriangleMesh(unit_triangle(), {"p": np.ones(3), "q": np.zeros(3)})
    m2 = TriangleMesh(unit_triangle(1.0), {"p": np.full(3, 2.0)})
    merged = TriangleMesh.merge([m1, m2])
    assert merged.n_triangles == 2
    assert set(merged.attributes) == {"p"}
    np.testing.assert_allclose(merged.attributes["p"], [1, 1, 1, 2, 2, 2])


def test_merge_empty_inputs():
    assert TriangleMesh.merge([]).is_empty()
    assert TriangleMesh.merge([TriangleMesh(), None]).is_empty()


def test_drop_degenerate():
    degenerate = np.zeros((3, 3))
    m = TriangleMesh(np.vstack([unit_triangle(), degenerate]))
    cleaned = m.drop_degenerate()
    assert cleaned.n_triangles == 1


def test_degenerate_normals_are_zero():
    m = TriangleMesh(np.zeros((3, 3)))
    np.testing.assert_allclose(m.normals()[0], [0, 0, 0])


@given(n=st.integers(1, 10), scale=st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_property_area_scales_quadratically(n, scale):
    tris = np.vstack([unit_triangle(float(i * 2)) for i in range(n)])
    m1 = TriangleMesh(tris)
    m2 = TriangleMesh(tris * scale)
    assert m2.area() == pytest.approx(m1.area() * scale**2, rel=1e-9)


def test_mesh_nbytes_counts_attributes():
    m = TriangleMesh(unit_triangle(), {"p": np.ones(3)})
    assert m.nbytes == 9 * 8 + 3 * 8


# ------------------------------------------------------------ criteria


def test_interaction_criteria_defaults():
    c = InteractionCriteria()
    assert c.frame_rate_ok(30.0)
    assert not c.frame_rate_ok(5.0)
    assert c.response_time_ok(0.05)
    assert not c.response_time_ok(0.5)


def test_frame_rate_model_monotone():
    fr = FrameRateModel()
    assert fr.frame_rate(0) > fr.frame_rate(10**6) > fr.frame_rate(10**8)
    # An empty scene renders at fixed cost.
    assert fr.frame_rate(0) == pytest.approx(1.0 / fr.fixed_frame_cost_s)


# -------------------------------------------------------------- client


def packet(seq, payload=None, nbytes=100, final=False, worker=0):
    return ResultPacket(
        request_id=1,
        worker_index=worker,
        sequence=seq,
        payload=payload,
        nbytes=nbytes,
        final=final,
    )


def test_client_records_packets_until_final():
    env = Environment()
    client = VisualizationClient(env)
    done = client.expect(1)

    def feeder():
        yield env.timeout(1.0)
        client.mailbox.put(packet(0, TriangleMesh(unit_triangle())))
        yield env.timeout(1.0)
        client.mailbox.put(packet(1, None, nbytes=0, final=True))

    env.process(feeder())
    env.run(until=done)
    packets = client.packets_by_request[1]
    assert len(packets) == 2
    assert client.first_data_time_of(1) == pytest.approx(1.0)
    assert [p.time for p in packets if p.final] == [pytest.approx(2.0)]
    assert TriangleMesh.merge(client.payloads_by_request[1]).n_triangles == 1


def test_client_keeps_consuming_after_a_final_packet():
    """One consume loop serves every request: a final packet completes
    its own request and nothing else."""
    env = Environment()
    client = VisualizationClient(env)
    done_a = client.expect(1)
    done_b = client.expect(2)
    client.mailbox.put(packet(0, final=True))
    env.run(until=done_a)
    assert not done_b.triggered
    client.mailbox.put(ResultPacket(
        request_id=2, worker_index=0, sequence=0, payload=None,
        nbytes=0, final=True,
    ))
    env.run(until=done_b)
    assert len(client.packets_by_request[1]) == 1
    assert len(client.packets_by_request[2]) == 1


def test_client_first_data_skips_empty_packets():
    env = Environment()
    client = VisualizationClient(env)
    done = client.expect(1)

    def feeder():
        yield env.timeout(0.5)
        client.mailbox.put(packet(0, None, nbytes=0))
        yield env.timeout(0.5)
        client.mailbox.put(packet(1, TriangleMesh(unit_triangle()), nbytes=50, final=True))

    env.process(feeder())
    env.run(until=done)
    assert client.first_data_time_of(1) == pytest.approx(1.0)


def test_client_reset():
    env = Environment()
    client = VisualizationClient(env)
    done = client.expect(1)
    client.mailbox.put(packet(0, TriangleMesh(unit_triangle()), final=True))
    env.run(until=done)
    assert client.packets_by_request[1]
    client.reset()
    assert not client.packets_by_request and not client.payloads_by_request
    assert client.first_data_time_of(1) is None


def test_client_other_payloads():
    """Non-geometry payloads are kept, in order, with their request."""
    env = Environment()
    client = VisualizationClient(env)
    done = client.expect(1)
    client.mailbox.put(packet(0, payload="not-a-mesh"))
    client.mailbox.put(packet(1, final=True))
    env.run(until=done)
    assert client.payloads_by_request[1] == ["not-a-mesh"]
