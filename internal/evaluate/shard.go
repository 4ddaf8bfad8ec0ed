package evaluate

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/prng"
	"repro/internal/stats"
)

// ShardSize is the fixed number of samples per campaign shard. Shard
// boundaries are independent of the worker count — only shard count and
// per-shard PRNG substreams define the drawn samples — so any worker pool
// produces bit-identical merged accumulators.
const ShardSize = 256

// ShardSeed derives the PRNG seed of one shard from the campaign seed.
func ShardSeed(campaignSeed uint64, shard int) uint64 {
	return splitmix(campaignSeed ^ (0xa0761d6478bd642f * (uint64(shard) + 1)))
}

// RunSharded partitions samples into fixed-size shards, runs collect for
// each shard on a pool of workers goroutines (workers <= 1 runs inline),
// and returns one merged accumulator per observation point. collect is
// called with the shard's own deterministic PRNG, its index, its sample
// count, and one empty accumulator per point; shard results are merged in
// shard-index order, so the output is bit-identical for any worker count.
// The accumulators of merged shards are reused by later calls of the same
// shape, and so is the result once the caller passes it to Recycle.
//
// Cancellation is checked at shard boundaries: once ctx is done no new
// shard starts, in-flight shards run to completion (a shard never splits
// its PRNG substream), all workers are joined, and ctx.Err() is returned.
func RunSharded(ctx context.Context, samples, workers, points, groups, maxOrder int, campaignSeed uint64,
	collect func(rng *prng.Source, shard, n int, accs []*stats.Accumulator) error) ([]*stats.Accumulator, error) {

	if ctx == nil {
		ctx = context.Background()
	}

	numShards := (samples + ShardSize - 1) / ShardSize
	if numShards < 1 {
		numShards = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numShards {
		workers = numShards
	}

	pool := accPool(accShape{points, groups, maxOrder})
	shardSamples := func(shard int) int {
		n := ShardSize
		if last := samples - shard*ShardSize; last < n {
			n = last
		}
		return n
	}

	perShard := make([][]*stats.Accumulator, numShards)
	errs := make([]error, numShards)
	runShard := func(shard int) {
		accs := pool.Get().(*accSet).accs
		rng := prng.New(ShardSeed(campaignSeed, shard))
		errs[shard] = collect(rng, shard, shardSamples(shard), accs)
		perShard[shard] = accs
	}

	if workers == 1 {
		for shard := 0; shard < numShards; shard++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			runShard(shard)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					shard := int(next.Add(1)) - 1
					if shard >= numShards {
						return
					}
					runShard(shard)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Shard 0's accumulators become the result; the others are reused.
	total := perShard[0]
	for _, accs := range perShard[1:] {
		for i, a := range accs {
			total[i].Merge(a)
		}
		Recycle(accs)
	}
	return total, nil
}

// Recycle hands a set of accumulators, one per observation point, back
// for reuse by later RunSharded calls of the same shape. Assessments call
// it on RunSharded's result once they have read their statistics, so an
// atlas sweep does not allocate a fresh set per cell and shard. The caller
// must not use the accumulators afterwards.
func Recycle(accs []*stats.Accumulator) {
	if len(accs) == 0 {
		return
	}
	for _, a := range accs {
		a.Reset()
	}
	accPool(accShape{len(accs), accs[0].Groups(), accs[0].MaxOrder()}).Put(&accSet{accs})
}

// accSet is one shard's accumulators, one per observation point.
type accSet struct{ accs []*stats.Accumulator }

// accShape keys the pools of accumulator sets.
type accShape struct{ points, groups, maxOrder int }

var accPools sync.Map // accShape → *sync.Pool of *accSet

func accPool(k accShape) *sync.Pool {
	if p, ok := accPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := accPools.LoadOrStore(k, &sync.Pool{New: func() any {
		set := &accSet{accs: make([]*stats.Accumulator, k.points)}
		for i := range set.accs {
			set.accs[i] = stats.NewAccumulator(k.groups, k.maxOrder)
		}
		return set
	}})
	return p.(*sync.Pool)
}
