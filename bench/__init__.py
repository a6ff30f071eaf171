"""The repo's end-to-end and per-layer benchmark (see ``bench/README.md``).

A package so that ``bench/trace.py`` never shadows the standard library's
``trace`` module: everything here is imported as ``bench.<module>``.
"""
