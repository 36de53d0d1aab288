import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_imports_without_site_packages():
    # -S leaves site-packages off sys.path, so any third-party import in
    # the package or its CLI fails with ModuleNotFoundError
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import swtvc, swtvc.cli"
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
