"""Golden bytes: small seeded containers whose SHA-256 is pinned.

Any change to these digests is a change to the container format and must
come with a version bump.
"""

import hashlib

import pytest

from voxgs import AttributeLayout, QuantParams, encode_container, generate_synthetic, quantize_cloud

GOLDEN = [
    # seed, anchors, k, m, q_p, mlp bytes, container bytes, SHA-256
    (0, 10, 10, 50, 1024, 0, 763, "b8c22baa2ba2c2e358abaf6257ea27d4f81e00ec3b3bc1e8392ff9c929a7b76c"),
    (1, 1000, 10, 50, 1024, 0, 41212, "631fe7cd36d49f9613edce0694248967c908c9f52f899d01bebd9004476b8aa9"),
    (2, 300, 2, 8, 200, 16, 10176, "ce343c7a3f13b2852ecffa12a0d5e545824b3b543d0445d2d4593b376020cf75"),
    (3, 0, 1, 1, 64, 0, 83, "1ebe42974ce5ee04578fea998d12ba52293a0dfe5f559a8778fbb1ac72122cf4"),
]


@pytest.mark.parametrize("seed,anchors,k,m,q_p,mlp_bytes,size,digest", GOLDEN)
def test_container_bytes_pinned(seed, anchors, k, m, q_p, mlp_bytes, size, digest):
    fcloud = generate_synthetic(
        seed, anchors, AttributeLayout(k, m), run_bias=0.5, mlp_bytes=mlp_bytes
    )
    blob = encode_container(quantize_cloud(fcloud, QuantParams(q_p=q_p)))
    assert len(blob) == size
    assert hashlib.sha256(blob).hexdigest() == digest
