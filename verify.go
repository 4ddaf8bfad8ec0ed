package explorefault

import (
	"fmt"

	"repro/internal/ciphers/aes"
	"repro/internal/ciphers/gift"
	"repro/internal/expfault"
	"repro/internal/prng"
)

// KeyRecovery is the outcome of a concrete differential fault attack.
type KeyRecovery = expfault.KeyRecoveryResult

// PropagationProfile re-exports the fault-propagation profile.
type PropagationProfile = expfault.PropagationProfile

// VerifyConfig tunes VerifyKeyRecovery.
type VerifyConfig struct {
	// Cipher names the target: "aes128" (Piret–Quisquater on a byte
	// fault at round 9), "gift64" or "gift128" (nibble-wise
	// guess-and-filter for an arbitrary fault model at Round).
	Cipher string
	// Key is the victim key; nil draws a random key from Seed.
	Key []byte
	// Round is the fault round (default three rounds before the last:
	// 25 for gift64, 37 for gift128). AES's attack is defined at round 9
	// only, so aes128 accepts 0 or 9.
	Round int
	// Pairs is the number of faulty encryptions (GIFT default 1024;
	// AES default 3 per column = 12 total, otherwise Pairs/4 per column
	// rounded up). Negative values are rejected.
	Pairs int
	// FaultModel is the typed injection model (default XorFlip, the
	// historical bit-flip attack). The GIFT attack rebuilds its
	// offline templates under the chosen model; Piret–Quisquater on
	// AES-128 is defined only for bit-flip byte differentials and
	// rejects other models.
	FaultModel FaultModel
	// Seed drives plaintexts and fault values.
	Seed uint64
}

// VerifyKeyRecovery mounts the key-recovery attack that a discovered
// fault model enables — the verification step §IV-D performs with the
// ExpFault tool. For AES-128 the pattern is implied by the attack (single
// byte at round 9); for GIFT-64 and GIFT-128 the given pattern is attacked
// directly.
func VerifyKeyRecovery(pattern Pattern, cfg VerifyConfig) (*KeyRecovery, error) {
	rng := prng.New(cfg.Seed)
	switch cfg.Cipher {
	case "aes128":
		if cfg.FaultModel != XorFlip {
			return nil, fmt.Errorf("explorefault: Piret–Quisquater needs bit-flip byte differentials; fault model %s is not supported on aes128", cfg.FaultModel)
		}
		if cfg.Round != 0 && cfg.Round != 9 {
			return nil, fmt.Errorf("explorefault: fault round %d out of range for aes128 (Piret–Quisquater faults round 9; want 0 or 9)", cfg.Round)
		}
		if cfg.Pairs < 0 {
			return nil, fmt.Errorf("explorefault: pairs %d out of range (want 0 or more)", cfg.Pairs)
		}
		c, _, err := newKeyedCipher(cfg.Cipher, cfg.Key, rng)
		if err != nil {
			return nil, err
		}
		pairs := 3
		if cfg.Pairs > 0 {
			pairs = (cfg.Pairs + 3) / 4
		}
		return expfault.AESPiretQuisquater(c.(*aes.Cipher), pairs, rng.Split())
	case "gift64", "gift128":
		c, _, err := newKeyedCipher(cfg.Cipher, cfg.Key, rng)
		if err != nil {
			return nil, err
		}
		return expfault.GIFTDFA(c.(*gift.Cipher), &pattern, expfault.GIFTDFAConfig{
			FaultRound: cfg.Round,
			Pairs:      cfg.Pairs,
			Model:      cfg.FaultModel,
		}, rng.Split())
	default:
		return nil, fmt.Errorf("explorefault: no key-recovery attack implemented for %q", cfg.Cipher)
	}
}

// Propagate profiles how a fault model's differential evolves round by
// round (active groups and per-group entropy), identifying the deepest
// distinguisher round — ExpFault's analysis view of a model.
func Propagate(pattern Pattern, cipherName string, key []byte, round, samples int, seed uint64) (*PropagationProfile, error) {
	return PropagateModel(pattern, cipherName, key, XorFlip, round, samples, seed)
}

// PropagateModel is Propagate under a typed fault model; XorFlip is
// bit-identical to Propagate.
func PropagateModel(pattern Pattern, cipherName string, key []byte, model FaultModel, round, samples int, seed uint64) (*PropagationProfile, error) {
	rng := prng.New(seed)
	c, _, err := newKeyedCipher(cipherName, key, rng)
	if err != nil {
		return nil, err
	}
	if samples == 0 {
		samples = 1024
	}
	return expfault.ProfileModel(c, &pattern, model, round, samples, rng.Split())
}
