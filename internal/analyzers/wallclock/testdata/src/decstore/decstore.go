// Package decstore stands for the packages that feed virtual time
// without running under it: a stored decision stamped with the host
// clock would differ between two runs of one seed.
package decstore

import "time"

func stamp() int64 {
	return time.Now().UnixNano() // want "wall clock time.Now in virtual-time package decstore"
}
