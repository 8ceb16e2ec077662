"""End-to-end and per-layer benchmark of gbmseg; see README.md."""
