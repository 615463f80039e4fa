package engine

import (
	"fmt"
	"sync"
	"unsafe"

	"m3r/internal/conf"
	"m3r/internal/formats"
	"m3r/internal/hmrext"
	"m3r/internal/mapred"
	"m3r/internal/mapreduce"
	"m3r/internal/registry"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// MapRun drives one map task: pull records from the reader, push pairs to
// the collector. It is the engine-internal common denominator of the
// old-style MapRunnable and the new-style Mapper loop.
type MapRun interface {
	Configure(job *conf.JobConf)
	Run(reader formats.RecordReader, out mapred.OutputCollector, ctx *TaskContext) error
}

// ReduceRun drives reduce (and combine) calls for one task.
type ReduceRun interface {
	Configure(job *conf.JobConf)
	Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, ctx *TaskContext) error
	Close() error
}

// ResolvedJob is a JobConf with every component name resolved to a factory,
// plus the derived properties engines dispatch on. Components are
// instantiated per task (they hold state), so the resolution step yields
// factories, with one probe instance used up front for marker detection and
// validation.
type ResolvedJob struct {
	Job         *conf.JobConf
	NumReducers int

	InputFormat      formats.InputFormat
	OutputFormatName string

	SortCmp  wio.Comparator
	GroupCmp wio.Comparator
	// RawSortCmp orders serialized keys without deserializing when the key
	// type provides it; nil otherwise.
	RawSortCmp wio.RawComparator
	// RawGroupCmp finds group boundaries on serialized keys: GroupCmp when it
	// compares raw bytes; nil when only GroupCmp on decoded keys is right.
	RawGroupCmp wio.RawComparator
	// GroupsBySort reports that the job names no grouping comparator: a
	// group is a run of keys equal under the sort order.
	GroupsBySort bool

	// MapImmutable reports that both the mapper and the map runner carry
	// the ImmutableOutput marker, so map output may be aliased (§4.1).
	MapImmutable bool
	// ReduceImmutable is the reducer-side equivalent.
	ReduceImmutable bool
	// CombineImmutable is the combiner-side equivalent.
	CombineImmutable bool
	// HasCombiner reports whether a combiner is configured.
	HasCombiner bool
	// CombineByHash reports that the combiner's input may be grouped by
	// hash instead of by sorting (CombineTable): the job names no sort or
	// grouping comparator, so keys group by their type's own order, and the
	// map-output key type is wio.Hashable — equal keys hash equal, which
	// the stock HashPartitioner assumes of every job already.
	CombineByHash bool
	// MapOnly reports a zero-reducer job: map output goes straight to the
	// output format (§5.3).
	MapOnly bool
	// MapOutput is the job's declared map-output classes, which both
	// engines' collectors hold each pair to.
	MapOutput MapOutputClasses

	newMapRun     func(in *immutableMapRun) MapRun // in: storage for the substituted runner, or nil
	newReduceRun  func() ReduceRun
	newCombineRun func() ReduceRun
	newPartition  func() mapred.Partitioner

	// taggedImmutable is MapTaskImmutable's answer for each tagged mapper a
	// task of the job has asked about: a mapper is probed once a job, not
	// once a task.
	taggedMu        sync.Mutex
	taggedImmutable map[string]bool
}

// Resolve validates job and resolves its components.
func Resolve(job *conf.JobConf) (*ResolvedJob, error) {
	rj := &ResolvedJob{Job: job, NumReducers: job.NumReduceTasks()}
	if rj.NumReducers < 0 {
		return nil, fmt.Errorf("engine: job %q: negative reducer count", job.JobName())
	}
	rj.MapOnly = rj.NumReducers == 0

	// Input format.
	ifName := job.GetDefault(conf.KeyInputFormatClass, formats.TextInputFormatName)
	ifc, err := registry.New(registry.KindInputFormat, ifName)
	if err != nil {
		return nil, fmt.Errorf("engine: job %q: %w", job.JobName(), err)
	}
	inputFormat, ok := ifc.(formats.InputFormat)
	if !ok {
		return nil, fmt.Errorf("engine: %q is not an InputFormat", ifName)
	}
	rj.InputFormat = inputFormat

	// Output format (validated here, instantiated per use).
	rj.OutputFormatName = job.GetDefault(conf.KeyOutputFormatClass, formats.TextOutputFormatName)
	if _, err := registry.New(registry.KindOutputFormat, rj.OutputFormatName); err != nil {
		return nil, fmt.Errorf("engine: job %q: %w", job.JobName(), err)
	}

	// Map side: resolve runner and mapper, detect markers.
	if err := rj.resolveMapSide(); err != nil {
		return nil, err
	}

	// Reduce side.
	if !rj.MapOnly {
		newRun, immutable, err := resolveReducerRole(job, conf.KeyReducerClass, conf.KeyNewReducerClass, mapred.IdentityReducerName)
		if err != nil {
			return nil, err
		}
		rj.newReduceRun = newRun
		rj.ReduceImmutable = immutable
	}

	// Combiner (optional, either style).
	if job.Has(conf.KeyCombinerClass) || job.Has(conf.KeyNewCombinerClass) {
		newRun, immutable, err := resolveReducerRole(job, conf.KeyCombinerClass, conf.KeyNewCombinerClass, "")
		if err != nil {
			return nil, err
		}
		rj.newCombineRun = newRun
		rj.CombineImmutable = immutable
		rj.HasCombiner = true
	}

	// Partitioner.
	pName := job.GetDefault(conf.KeyPartitionerClass, mapred.HashPartitionerName)
	if _, err := registry.New(registry.KindPartitioner, pName); err != nil {
		return nil, fmt.Errorf("engine: job %q: %w", job.JobName(), err)
	}
	rj.newPartition = func() mapred.Partitioner {
		p, err := registry.New(registry.KindPartitioner, pName)
		if err != nil {
			panic(err)
		}
		part := p.(mapred.Partitioner)
		part.Configure(job)
		return part
	}

	// Comparators: explicit sort comparator, else the key type's registered
	// raw comparator, else the key's natural order; grouping comparator
	// defaults to the sort comparator (§1: M3R supports user-specified
	// sorting and grouping comparators). Wiring the raw comparator into
	// SortCmp is the fast path for standard key types: its Compare is
	// specialized to the concrete key type (no Comparable-interface hop),
	// and its CompareRaw orders serialized keys without deserializing —
	// the Hadoop engine's spill sort and merge use it directly.
	rj.SortCmp = wio.NaturalOrder{}
	if name := job.Get(conf.KeySortComparatorClass); name != "" {
		c, err := registry.New(registry.KindComparator, name)
		if err != nil {
			return nil, err
		}
		rj.SortCmp = c.(wio.Comparator)
	} else if kc := job.MapOutputKeyClass(); kc != "" {
		// The standard types' raw comparators; a job with a custom key class
		// falls back to deserializing comparison, as Hadoop does for a key
		// class without a registered WritableComparator.
		if raw := types.RawComparatorFor(kc); raw != nil {
			rj.RawSortCmp = raw
			rj.SortCmp = raw
		}
	}
	rj.GroupCmp, rj.GroupsBySort = rj.SortCmp, true
	if name := job.Get(conf.KeyGroupingComparatorClass); name != "" {
		c, err := registry.New(registry.KindComparator, name)
		if err != nil {
			return nil, err
		}
		rj.GroupCmp, rj.GroupsBySort = c.(wio.Comparator), false
	}
	rj.RawGroupCmp, _ = rj.GroupCmp.(wio.RawComparator)

	if rj.HasCombiner && job.Get(conf.KeySortComparatorClass) == "" && job.Get(conf.KeyGroupingComparatorClass) == "" {
		if newKey, err := wio.Factory(job.MapOutputKeyClass()); err == nil {
			_, rj.CombineByHash = newKey().(wio.Hashable)
		}
	}

	// Validate declared key/value classes exist.
	for _, key := range []string{conf.KeyMapOutputKeyClass, conf.KeyMapOutputValueClass,
		conf.KeyOutputKeyClass, conf.KeyOutputValueClass} {
		if name := job.Get(key); name != "" && !wio.Registered(name) {
			return nil, fmt.Errorf("engine: job %q: unregistered writable %q for %s", job.JobName(), name, key)
		}
	}
	mo := &rj.MapOutput
	mo.KeyClass, mo.ValClass = job.MapOutputKeyClass(), job.MapOutputValueClass()
	if mo.KeyType, err = classType(mo.KeyClass); err != nil {
		return nil, err
	}
	if mo.ValType, err = classType(mo.ValClass); err != nil {
		return nil, err
	}
	return rj, nil
}

// classType is the type word of the named writable class; nil for "".
func classType(name string) (TypeWord, error) {
	if name == "" {
		return nil, nil
	}
	w, err := wio.New(name)
	return TypeOf(w), err
}

// MapOutputClasses names a job's map-output key and value classes and the
// dynamic types a collected pair must have to be of them. A class left
// undeclared has an empty name and a nil type, and Check lets any object
// through on that side.
type MapOutputClasses struct {
	KeyClass, ValClass string
	KeyType, ValType   TypeWord
}

// TypeWord identifies a dynamic type: the runtime's descriptor of it, one per
// type in the binary. Comparing two is what comparing reflect.TypeOf results
// decides, at half the cost on the per-pair path.
type TypeWord unsafe.Pointer

// TypeOf is v's type word: the first word of the empty interface holding v.
func TypeOf(v any) TypeWord { return TypeWord((*[2]unsafe.Pointer)(unsafe.Pointer(&v))[0]) }

// Check fails a map-output pair that is not of the declared classes, with the
// error Hadoop's MapOutputBuffer.collect raises: two pointer compares.
func (c *MapOutputClasses) Check(key, value wio.Writable) error {
	keyOK := c.KeyType == nil || TypeOf(key) == c.KeyType
	if keyOK && (c.ValType == nil || TypeOf(value) == c.ValType) {
		return nil
	}
	what, want, got := "key", c.KeyClass, key
	if keyOK {
		what, want, got = "value", c.ValClass, value
	}
	name, err := wio.NameOf(got)
	if err != nil {
		name = fmt.Sprintf("%T", got)
	}
	return fmt.Errorf("Type mismatch in %s from map: expected %s, received %s", what, want, name)
}

// RawKeyComparator returns the comparator that orders serialized map-output
// keys of class keyClass — what the Hadoop engine sorts and merges its spill
// records with, and the budgeted M3R shuffle its frames: the key type's
// registered raw comparator when there is one, else a deserializing wrapper
// around the job's sort comparator (Hadoop's WritableComparator fallback,
// which is what a custom SortComparator with no raw form gets).
func (rj *ResolvedJob) RawKeyComparator(keyClass string) (wio.RawComparator, error) {
	if rj.RawSortCmp != nil {
		return rj.RawSortCmp, nil
	}
	newKey, err := wio.Factory(keyClass)
	if err != nil {
		return nil, fmt.Errorf("engine: unregistered map output key class %q", keyClass)
	}
	return wio.NewDeserializingComparator(rj.SortCmp, newKey), nil
}

// resolveMapSide builds the map-run factory for either API style.
func (rj *ResolvedJob) resolveMapSide() error {
	job := rj.Job
	oldName := job.Get(conf.KeyMapperClass)
	newName := job.Get(conf.KeyNewMapperClass)
	runnerName := job.GetDefault(conf.KeyMapRunnerClass, mapred.DefaultMapRunnerName)

	if newName != "" {
		probe, err := registry.New(registry.KindMapper, newName)
		if err != nil {
			return err
		}
		m, ok := probe.(mapreduce.Mapper)
		if !ok {
			return fmt.Errorf("engine: %q is not a new-style Mapper", newName)
		}
		immutable := hmrext.IsImmutableOutput(m)
		rj.MapImmutable = immutable
		rj.newMapRun = func(*immutableMapRun) MapRun {
			inst, err := registry.New(registry.KindMapper, newName)
			if err != nil {
				panic(err)
			}
			return &newMapRun{mapper: inst.(mapreduce.Mapper), freshInputs: immutable}
		}
		return nil
	}

	// Old style: a MapRunnable wraps the mapper.
	mapperName := oldName
	if mapperName == "" {
		mapperName = mapred.IdentityMapperName
	}
	mProbe, err := registry.New(registry.KindMapper, mapperName)
	if err != nil {
		return err
	}
	if _, ok := mProbe.(mapred.Mapper); !ok {
		return fmt.Errorf("engine: %q is not an old-style Mapper", mapperName)
	}
	rProbe, err := registry.New(registry.KindMapRunner, runnerName)
	if err != nil {
		return err
	}
	if _, ok := rProbe.(mapred.MapRunnable); !ok {
		return fmt.Errorf("engine: %q is not a MapRunnable", runnerName)
	}
	rj.MapImmutable = hmrext.IsImmutableOutput(mProbe) && hmrext.IsImmutableOutput(rProbe)
	rj.newMapRun = func(*immutableMapRun) MapRun {
		r, err := registry.New(registry.KindMapRunner, runnerName)
		if err != nil {
			panic(err)
		}
		return &oldMapRun{runner: r.(mapred.MapRunnable)}
	}
	return nil
}

// MapTaskImmutable decides output immutability for one map task. For
// ordinary splits it is the job-wide answer; for MultipleInputs' tagged
// splits the effective mapper is per-split, so the tagged mapper's marker
// decides (the DelegatingMapper wrapper itself carries no marker).
func MapTaskImmutable(rj *ResolvedJob, split formats.InputSplit) bool {
	t, ok := split.(*formats.TaggedInputSplit)
	if !ok {
		return rj.MapImmutable
	}
	rj.taggedMu.Lock()
	defer rj.taggedMu.Unlock()
	immutable, probed := rj.taggedImmutable[t.MapperName]
	if !probed {
		m, err := registry.New(registry.KindMapper, t.MapperName)
		immutable = err == nil && hmrext.IsImmutableOutput(m)
		if rj.taggedImmutable == nil {
			rj.taggedImmutable = make(map[string]bool)
		}
		rj.taggedImmutable[t.MapperName] = immutable
	}
	return immutable
}

// SubstituteImmutableRunner swaps Hadoop's default MapRunner for M3R's
// fresh-allocating ImmutableMapRunner (§4.1: "M3R specially detects the
// default implementation and automatically replaces it"). It only applies
// when the job uses the default runner; the map side then aliases iff the
// mapper itself is marked.
func (rj *ResolvedJob) SubstituteImmutableRunner() {
	job := rj.Job
	if job.Get(conf.KeyNewMapperClass) != "" {
		return // the new-style loop already honours the marker
	}
	if job.GetDefault(conf.KeyMapRunnerClass, mapred.DefaultMapRunnerName) != mapred.DefaultMapRunnerName {
		return // custom runner: the job author is responsible (§4.1)
	}
	mapperName := job.GetDefault(conf.KeyMapperClass, mapred.IdentityMapperName)
	mProbe, err := registry.New(registry.KindMapper, mapperName)
	if err != nil {
		return
	}
	rj.MapImmutable = hmrext.IsImmutableOutput(mProbe)
	rj.newMapRun = func(in *immutableMapRun) MapRun {
		inst, err := registry.New(registry.KindMapper, mapperName)
		if err != nil {
			panic(err)
		}
		// The runner and its wrapper are one piece: the task's, or one
		// allocation.
		if in == nil {
			in = new(immutableMapRun)
		}
		*in = immutableMapRun{runner: *mapred.NewImmutableMapRunner(inst.(mapred.Mapper))}
		in.oldMapRun.runner = &in.runner
		return &in.oldMapRun
	}
}

// resolveReducerRole resolves an old- or new-style reducer/combiner.
func resolveReducerRole(job *conf.JobConf, oldKey, newKey, def string) (func() ReduceRun, bool, error) {
	oldName := job.Get(oldKey)
	newName := job.Get(newKey)
	if newName != "" {
		probe, err := registry.New(registry.KindReducer, newName)
		if err != nil {
			return nil, false, err
		}
		if _, ok := probe.(mapreduce.Reducer); !ok {
			return nil, false, fmt.Errorf("engine: %q is not a new-style Reducer", newName)
		}
		immutable := hmrext.IsImmutableOutput(probe)
		return func() ReduceRun {
			inst, err := registry.New(registry.KindReducer, newName)
			if err != nil {
				panic(err)
			}
			return &newReduceRun{reducer: inst.(mapreduce.Reducer)}
		}, immutable, nil
	}
	name := oldName
	if name == "" {
		name = def
	}
	if name == "" {
		return nil, false, fmt.Errorf("engine: no reducer configured under %s/%s", oldKey, newKey)
	}
	probe, err := registry.New(registry.KindReducer, name)
	if err != nil {
		return nil, false, err
	}
	if _, ok := probe.(mapred.Reducer); !ok {
		return nil, false, fmt.Errorf("engine: %q is not an old-style Reducer", name)
	}
	immutable := hmrext.IsImmutableOutput(probe)
	return func() ReduceRun {
		inst, err := registry.New(registry.KindReducer, name)
		if err != nil {
			panic(err)
		}
		return &oldReduceRun{reducer: inst.(mapred.Reducer)}
	}, immutable, nil
}

// NewMapRun instantiates the map driver for one task.
func (rj *ResolvedJob) NewMapRun() MapRun { return rj.newMapRun(nil) }

// TaskMapRun is NewMapRun for the task ctx describes: a substituted runner
// is built in the context's own storage, so it lives and dies with the
// task's attempt.
func (rj *ResolvedJob) TaskMapRun(ctx *TaskContext) MapRun { return rj.newMapRun(&ctx.mapRun) }

// NewReduceRun instantiates the reduce driver for one task.
func (rj *ResolvedJob) NewReduceRun() ReduceRun { return rj.newReduceRun() }

// NewCombineRun instantiates the combine driver, or nil when unconfigured.
func (rj *ResolvedJob) NewCombineRun() ReduceRun {
	if rj.newCombineRun == nil {
		return nil
	}
	return rj.newCombineRun()
}

// NewPartitioner instantiates the partitioner for one task.
func (rj *ResolvedJob) NewPartitioner() mapred.Partitioner { return rj.newPartition() }

// NewOutputFormat instantiates the output format.
func (rj *ResolvedJob) NewOutputFormat() (formats.OutputFormat, error) {
	of, err := registry.New(registry.KindOutputFormat, rj.OutputFormatName)
	if err != nil {
		return nil, err
	}
	outputFormat, ok := of.(formats.OutputFormat)
	if !ok {
		return nil, fmt.Errorf("engine: %q is not an OutputFormat", rj.OutputFormatName)
	}
	return outputFormat, nil
}

// PairsRunner is the M3R fast path: run the map task over an in-memory
// pair sequence, bypassing the RecordReader entirely ("M3R will bypass the
// provided RecordReader and obtain the required key value sequence directly
// from the cache", §3.2.1). Both adapters implement it; jobs with a custom
// MapRunnable fall back to a copying reader since the runnable's contract
// requires one.
type PairsRunner interface {
	RunPairs(pairs []wio.Pair, out mapred.OutputCollector, ctx *TaskContext) error
}

// oldMapRun adapts a mapred.MapRunnable.
type oldMapRun struct {
	runner mapred.MapRunnable
}

// immutableMapRun is an oldMapRun over M3R's substituted runner, which it
// holds.
type immutableMapRun struct {
	oldMapRun
	runner mapred.ImmutableMapRunner
}

func (r *oldMapRun) Configure(job *conf.JobConf) { r.runner.Configure(job) }

func (r *oldMapRun) Run(reader formats.RecordReader, out mapred.OutputCollector, ctx *TaskContext) error {
	return r.runner.Run(reader, out, ctx)
}

// RunPairs implements PairsRunner. For the standard runners the wrapped
// mapper is driven directly over the cached objects; a custom MapRunnable
// is fed through a copying PairReader, preserving its contract at the cost
// of a serialization round trip per record (the price of an opaque runner).
func (r *oldMapRun) RunPairs(pairs []wio.Pair, out mapred.OutputCollector, ctx *TaskContext) error {
	var mapper mapred.Mapper
	switch runner := r.runner.(type) {
	case *mapred.MapRunner:
		mapper = runner.Mapper()
	case *mapred.ImmutableMapRunner:
		mapper = runner.Mapper()
	}
	if mapper == nil {
		if len(pairs) == 0 {
			return r.runner.Run(emptyReader{}, out, ctx)
		}
		keyClass, err := wio.NameOf(pairs[0].Key)
		if err != nil {
			return err
		}
		valClass, err := wio.NameOf(pairs[0].Value)
		if err != nil {
			return err
		}
		reader, err := formats.NewPairReader(pairs, keyClass, valClass)
		if err != nil {
			return err
		}
		return r.runner.Run(reader, out, ctx)
	}
	inputCell := &ctx.Cells.MapInputRecords
	for _, p := range pairs {
		inputCell.Increment(1)
		if err := mapper.Map(p.Key, p.Value, out, ctx); err != nil {
			return err
		}
	}
	return mapper.Close()
}

// emptyReader is a RecordReader over nothing, used when a custom runnable
// must be driven over an empty cached split.
type emptyReader struct{}

func (emptyReader) CreateKey() wio.Writable              { return nil }
func (emptyReader) CreateValue() wio.Writable            { return nil }
func (emptyReader) Next(_, _ wio.Writable) (bool, error) { return false, nil }
func (emptyReader) Progress() float32                    { return 1 }
func (emptyReader) Close() error                         { return nil }

// newMapRun adapts a mapreduce.Mapper with the context loop.
type newMapRun struct {
	mapper      mapreduce.Mapper
	freshInputs bool
	job         *conf.JobConf
}

func (r *newMapRun) Configure(job *conf.JobConf) { r.job = job }

func (r *newMapRun) Run(reader formats.RecordReader, out mapred.OutputCollector, ctx *TaskContext) error {
	ctx.SetEmit(out.Collect)
	if err := r.mapper.Setup(ctx); err != nil {
		return err
	}
	key := reader.CreateKey()
	value := reader.CreateValue()
	inputCell := &ctx.Cells.MapInputRecords
	for {
		if r.freshInputs {
			key = reader.CreateKey()
			value = reader.CreateValue()
		}
		ok, err := reader.Next(key, value)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		inputCell.Increment(1)
		if err := r.mapper.Map(key, value, ctx); err != nil {
			return err
		}
	}
	return r.mapper.Cleanup(ctx)
}

// RunPairs implements PairsRunner: the new-style mapper is driven directly
// over the cached objects.
func (r *newMapRun) RunPairs(pairs []wio.Pair, out mapred.OutputCollector, ctx *TaskContext) error {
	ctx.SetEmit(out.Collect)
	if err := r.mapper.Setup(ctx); err != nil {
		return err
	}
	inputCell := &ctx.Cells.MapInputRecords
	for _, p := range pairs {
		inputCell.Increment(1)
		if err := r.mapper.Map(p.Key, p.Value, ctx); err != nil {
			return err
		}
	}
	return r.mapper.Cleanup(ctx)
}

// oldReduceRun adapts a mapred.Reducer.
type oldReduceRun struct {
	reducer mapred.Reducer
}

func (r *oldReduceRun) Configure(job *conf.JobConf) { r.reducer.Configure(job) }

func (r *oldReduceRun) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, ctx *TaskContext) error {
	return r.reducer.Reduce(key, values, out, ctx)
}

func (r *oldReduceRun) Close() error { return r.reducer.Close() }

// newReduceRun adapts a mapreduce.Reducer. The reducer writes through the
// task context, so each call points the context's Write at the call's
// collector and puts back what was there before: a combiner may run in the
// middle of a map task whose mapper writes through the same context (the
// Hadoop engine's per-spill Combine, the M3R engine's CombineTable).
type newReduceRun struct {
	reducer mapreduce.Reducer
	job     *conf.JobConf
	started bool
	lastCtx *TaskContext
	lastOut mapred.OutputCollector
}

func (r *newReduceRun) Configure(job *conf.JobConf) { r.job = job }

func (r *newReduceRun) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, ctx *TaskContext) error {
	prev := ctx.emit
	ctx.emit = out.Collect
	defer func() { ctx.emit = prev }()
	if !r.started {
		if err := r.reducer.Setup(ctx); err != nil {
			return err
		}
		r.started = true
	}
	r.lastCtx, r.lastOut = ctx, out
	return r.reducer.Reduce(key, valuesAdapter{values}, ctx)
}

// Close runs Cleanup, which writes to the last call's collector.
func (r *newReduceRun) Close() error {
	if !r.started {
		return nil
	}
	ctx := r.lastCtx
	prev := ctx.emit
	ctx.emit = r.lastOut.Collect
	defer func() { ctx.emit = prev }()
	return r.reducer.Cleanup(ctx)
}

// valuesAdapter bridges the two APIs' identical-but-distinct iterators.
type valuesAdapter struct{ it mapred.ValueIterator }

func (v valuesAdapter) Next() (wio.Writable, bool) { return v.it.Next() }
