"""The repo's performance benchmark (see README.md in this directory).

Four fixed-seed synthetic workloads, each dominated by a different Table-5
stage of the default ``lightne`` pipeline, measured end to end (``--trace 0``)
and layer by layer (``--trace 1``) against ceilings measured in the same run.
Layers are timed from outside, around calls into their public functions.
"""
