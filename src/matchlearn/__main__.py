"""``python -m matchlearn ...``: the same CLI as the ``matchlearn`` entry point."""
from .harness import main

raise SystemExit(main())
