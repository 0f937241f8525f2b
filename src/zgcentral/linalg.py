"""Empty.  The exact rank that lived here is the center-degree oracle in
`tests/oracles.py`.  The module stays importable only because the
benchmark's tracer imports `zgcentral.linalg` by name; delete it when the
tracer drops its `linalg.integer_rank` target."""
