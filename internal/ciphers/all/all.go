// Package all registers every cipher implementation with the ciphers
// registry via blank imports. Commands and tools that want "every cipher
// the build knows" import this one package instead of maintaining their
// own import list — partial lists drift as ciphers are added (a tool
// missing one import silently rejects a registered cipher by name).
package all

import (
	_ "repro/internal/ciphers/aes"        // register aes128
	_ "repro/internal/ciphers/gift"       // register gift64, gift128, present80
	_ "repro/internal/ciphers/simonspeck" // register simon32, simon64, speck32, speck64
)
