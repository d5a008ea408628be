"""perfbench: the repo's end-to-end + per-layer benchmark.

One verified shortest-path query crosses kernel search, proof assembly,
encoding, framing, the HTTP frontend, the socket, client decode, Merkle
root reconstruction, the client's re-search and the signature check.
This package measures that path from outside — by timing calls into the
public functions of ``repro`` and by driving a real server process over
the wire contract (``POST /rpc``, one frame in, one frame out) — and
changes nothing under ``src/``.  See ``perfbench/README.md``.
"""
