package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// BenchmarkShardedProcessDue measures a full scheduling pass as the
// deployment gains shards. Each shard holds the same population (50
// devices, one waitlisted request that re-qualifies every pass), so
// total work grows linearly with shard count while the fan-out runs the
// shards concurrently — the paper's scalability argument for per-edge
// instances, in microbenchmark form.
func BenchmarkShardedProcessDue(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var regions []Region
			for i := 0; i < shards; i++ {
				regions = append(regions, Region{
					Name: fmt.Sprintf("r%d", i),
					Area: geo.Circle{Center: geo.Offset(geo.UniversityGym, 0, float64(i)*5000), RadiusM: 1200},
				})
			}
			s, err := NewShardedServer(DefaultServerConfig(), DispatcherFunc(func(Request, DeviceState) {}), regions)
			if err != nil {
				b.Fatal(err)
			}
			for i, r := range regions {
				for d := 0; d < 50; d++ {
					dev := freshDevice(fmt.Sprintf("dev-%d-%d", i, d))
					dev.Position = r.Area.Center
					if err := s.RegisterDevice(dev); err != nil {
						b.Fatal(err)
					}
				}
				// Density beyond the shard's population: the request
				// waitlists and every pass re-runs qualification over the
				// shard's device set without ever being satisfied.
				tk := validTask()
				tk.Area = geo.Circle{Center: r.Area.Center, RadiusM: 600}
				tk.SpatialDensity = 60
				if _, err := s.SubmitTask(tk, simclock.Epoch, func(TaskID, string, sensors.Reading) {}); err != nil {
					b.Fatal(err)
				}
			}
			s.ProcessDue(simclock.Epoch) // move due requests onto the wait queue
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ProcessDue(simclock.Epoch)
			}
		})
	}
}

// encodingSink stands in for a persist.Store in benchmarks: it encodes
// each record into one buffer under one lock, which is a store's
// critical section without the write.
type encodingSink struct {
	mu  sync.Mutex
	buf []byte
}

func (s *encodingSink) Append(rec JournalRecord) {
	s.mu.Lock()
	s.buf, _ = rec.AppendJSON(s.buf[:0])
	s.mu.Unlock()
}

// BenchmarkShardedUpdateState measures state reports arriving from
// several goroutines at once, with none and with one in six of them
// crossing the shard boundary (city_mobile's mix). A crossing holds its
// device's stripe across a take, a put and their two journal appends; the
// figure to watch is how little the 16 % rows lose as goroutines are
// added, since reports for other devices do not wait for it. The
// fleet=4096 rows walk a small fleet in order from two points, so every
// lookup hits cache and every cell is crowded; the fleet=100k rows are the
// city: devices spread over their region's cells, visited in random
// order so the ID lookup misses, every other visit stepping a device into
// the next cell.
func BenchmarkShardedUpdateState(b *testing.B) {
	west := geo.Point{Lat: 40.0, Lon: -86.95}
	east := geo.Point{Lat: 40.0, Lon: -86.85}
	regions := []Region{
		{Name: "west", Area: geo.Circle{Center: west, RadiusM: 4500}},
		{Name: "east", Area: geo.Circle{Center: east, RadiusM: 4500}},
	}
	sides := [2]geo.Point{west, east}
	for _, city := range []bool{false, true} {
		fleet, name := 4096, "fleet=4096"
		if city {
			fleet, name = 100_000, "fleet=100k"
		}
		for _, rehomePct := range []int{0, 16} {
			for _, goroutines := range []int{2, 4, 8} {
				b.Run(fmt.Sprintf("%s/rehome=%d%%/goroutines=%d", name, rehomePct, goroutines), func(b *testing.B) {
					cfg := DefaultServerConfig()
					cfg.ShardJournal = func(string) JournalSink { return &encodingSink{} }
					s, err := NewShardedServer(cfg, DispatcherFunc(func(Request, DeviceState) {}), regions)
					if err != nil {
						b.Fatal(err)
					}
					rng := rand.New(rand.NewSource(9))
					ids := make([]string, fleet)
					side := make([]int, fleet)
					north := make([]float64, fleet) // a device's place within its side
					eastM := make([]float64, fleet)
					stepped := make([]bool, fleet) // city: whether it stands one cell east of there
					for i := range ids {
						ids[i] = fmt.Sprintf("dev-%06d", i)
						side[i] = i % 2
						if city {
							north[i], eastM[i] = rng.Float64()*5000-2500, rng.Float64()*5000-2500
						}
						dev := freshDevice(ids[i])
						dev.Position = geo.Offset(sides[side[i]], north[i], eastM[i])
						if err := s.RegisterDevice(dev); err != nil {
							b.Fatal(err)
						}
					}
					b.ResetTimer()
					var wg sync.WaitGroup
					for g := 0; g < goroutines; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							// Each goroutine owns the devices congruent to g, so a
							// device's side and step are its own to track.
							pick := rand.New(rand.NewSource(int64(g)))
							for n, i := 0, g; n < b.N/goroutines; n, i = n+1, i+goroutines {
								d := i % fleet
								if city {
									d = g + goroutines*pick.Intn(fleet/goroutines)
								}
								if n%100 < rehomePct {
									side[d] ^= 1
								}
								pos := geo.Offset(sides[side[d]], float64(n%50), 0)
								if city {
									if n%2 == 0 {
										stepped[d] = !stepped[d]
									}
									pos = geo.Offset(sides[side[d]], north[d], eastM[d])
									if stepped[d] {
										pos = geo.Offset(pos, 0, DefaultCellSizeM)
									}
								}
								if err := s.UpdateDeviceState(ids[d], pos, 80, simclock.Epoch); err != nil {
									b.Error(err)
									return
								}
							}
						}(g)
					}
					wg.Wait()
				})
			}
		}
	}
}
