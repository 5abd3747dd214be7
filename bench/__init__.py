"""End-to-end benchmark harness (see ``bench/README.md``)."""
