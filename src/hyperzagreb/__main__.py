"""`python -m hyperzagreb ...` runs the same command line as `hyperzagreb ...`."""

from .cli import main
raise SystemExit(main())
