// Package obs must stay dependency-free (a leaf of the DAG): any
// in-module import is a violation.
package obs

import (
	_ "epoc/internal/linalg" // want "layering: import of epoc/internal/linalg is not in the DAG"
)
