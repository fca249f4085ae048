package lint

import (
	"errors"

	"repro/internal/dist"
	"repro/internal/modelio"
)

// CheckDist validates a distribution's parameters by building it with
// DistSpec.Distribution, the constructor the solvers use, so the lint
// verdict is Solve's. path locates the distribution in the document.
func CheckDist(path string, d *modelio.DistSpec) []Diagnostic {
	_, err := d.Distribution()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, modelio.ErrBadSpec):
		// Distribution's own refusal: the kind names no constructor.
		return errf(nil, CodeDistUnknownKind, path, "unknown distribution kind %q", d.Kind)
	case errors.Is(err, dist.ErrBadParam):
		// The constructor error already names the bad parameter value.
		return errf(nil, CodeDistBadParam, path, "%s", err)
	default:
		return errf(nil, CodeDistBadParam, path, "invalid parameters: %s", err)
	}
}
