package cdn

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

func keyBase() Config {
	return Config{
		Method:   consistency.MethodTTL,
		Infra:    consistency.InfraUnicast,
		Topology: topology.Config{Servers: 10, UsersPerServer: 1, Seed: 1},
		Seed:     1,
	}
}

func mustKey(t *testing.T, c Config) string {
	t.Helper()
	k, err := c.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

// configFields lists every field of Config by path, descending into the
// nested topology and network configs.
func configFields() []string {
	var paths []string
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		switch f.Type {
		case reflect.TypeOf(topology.Config{}), reflect.TypeOf(Config{}.Net):
			for j := 0; j < f.Type.NumField(); j++ {
				paths = append(paths, f.Name+"."+f.Type.Field(j).Name)
			}
		default:
			paths = append(paths, f.Name)
		}
	}
	return paths
}

func fieldAt(c *Config, path string) reflect.Value {
	v := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// Any change to a run's inputs must change its key, or two different runs
// would share one Result. Every field is found by reflection, so a field
// added later fails here until it has a mutation below (and Key covers it).
// Only the run control is exempt: the context.
func TestKeyCoversEveryInput(t *testing.T) {
	oneUser := &workload.Population{Servers: make([][]workload.CohortSpec, 10)}
	for i := range oneUser.Servers {
		oneUser.Servers[i] = []workload.CohortSpec{{Count: 1}}
	}
	fed := federation.DefaultSpec(2)
	mutations := map[string]struct {
		pre    func(*Config) // moves the base to where the change is valid
		change func(*Config)
	}{
		"Method":                  {change: func(c *Config) { c.Method = consistency.MethodPush }},
		"Infra":                   {change: func(c *Config) { c.Infra = consistency.InfraHybrid }},
		"TreeDegree":              {change: func(c *Config) { c.TreeDegree = 3 }},
		"SupernodeDegree":         {change: func(c *Config) { c.SupernodeDegree = 3 }},
		"Clusters":                {change: func(c *Config) { c.Clusters = 7 }},
		"Topology.Servers":        {change: func(c *Config) { c.Topology.Servers = 11 }},
		"Topology.UsersPerServer": {change: func(c *Config) { c.Topology.UsersPerServer = 2 }},
		"Topology.CitiesPerISP":   {change: func(c *Config) { c.Topology.CitiesPerISP = 3 }},
		"Topology.Regions":        {change: func(c *Config) { c.Topology.Regions = topology.DefaultRegions()[:1] }},
		"Topology.ProviderLoc":    {change: func(c *Config) { c.Topology.ProviderLoc = geo.Point{Lat: 1, Lon: 2} }},
		"Topology.Seed":           {change: func(c *Config) { c.Topology.Seed = 9 }},
		"ServerTTL":               {change: func(c *Config) { c.ServerTTL = 7 * time.Second }},
		"UserTTL":                 {change: func(c *Config) { c.UserTTL = 7 * time.Second }},
		"UpdateSizeKB":            {change: func(c *Config) { c.UpdateSizeKB = 2 }},
		"Updates":                 {change: func(c *Config) { c.Updates = []workload.Update{{Snapshot: 1, At: time.Minute, SizeKB: 1}} }},
		"HorizonSlack":            {change: func(c *Config) { c.HorizonSlack = time.Minute }},
		"UserSwitchEveryVisit":    {change: func(c *Config) { c.UserSwitchEveryVisit = true }},
		"UserModel":               {pre: func(c *Config) { c.Population = oneUser }, change: func(c *Config) { c.UserModel = UserModelCohort }},
		"Population":              {change: func(c *Config) { c.Population = oneUser }},
		"AccountVisits":           {change: func(c *Config) { c.AccountVisits = true }},
		"ResolverTTL":             {change: func(c *Config) { c.ResolverTTL = 7 * time.Second }},
		"RepairTree":              {change: func(c *Config) { c.RepairTree = true }},
		"Federation":              {change: func(c *Config) { c.Federation = &fed }},
		"Faults":                  {change: func(c *Config) { c.Faults = &fault.Spec{RandomCrashes: &fault.RandomCrashes{Count: 1}} }},
		"Failover":                {change: func(c *Config) { c.Failover = true }},
		"Audit":                   {change: func(c *Config) { c.Audit = &AuditOptions{} }},
		"Sharded":                 {change: func(c *Config) { c.Sharded = true }},
		"Net.DefaultUplinkKBps":   {change: func(c *Config) { c.Net.DefaultUplinkKBps = 2000 }},
		"Net.DisableQueuing":      {change: func(c *Config) { c.Net.DisableQueuing = true }},
		"Seed":                    {change: func(c *Config) { c.Seed = 9 }},
	}
	controls := map[string]func(*Config){
		"Ctx": func(c *Config) { c.Ctx = context.Background() },
	}
	for _, path := range configFields() {
		t.Run(path, func(t *testing.T) {
			if set, ok := controls[path]; ok {
				c := keyBase()
				set(&c)
				if mustKey(t, c) != mustKey(t, keyBase()) {
					t.Errorf("setting run control %s changed the key", path)
				}
				return
			}
			if path == "Topo" {
				c := keyBase()
				c.Topo = &topology.Topology{}
				if _, err := c.Key(); err == nil {
					t.Error("a run with a prebuilt topology got a key")
				}
				return
			}
			m, ok := mutations[path]
			if !ok {
				t.Fatalf("no mutation for Config field %s: add one, and make sure Key covers the field", path)
			}
			before := keyBase()
			if m.pre != nil {
				m.pre(&before)
			}
			after := before
			m.change(&after)
			if reflect.DeepEqual(fieldAt(&before, path).Interface(), fieldAt(&after, path).Interface()) {
				t.Fatalf("mutation for %s does not change that field", path)
			}
			if mustKey(t, before) == mustKey(t, after) {
				t.Errorf("changing %s left the key unchanged", path)
			}
		})
	}
}

// The key is built from the defaulted config, so an unset field and its
// explicit default agree, and a config that fails Validate has no key.
func TestKeyDefaults(t *testing.T) {
	base := mustKey(t, keyBase())
	explicit := keyBase()
	explicit.UserTTL = DefaultUserTTL
	explicit.ServerTTL = DefaultServerTTL
	explicit.UpdateSizeKB = DefaultUpdateSizeKB
	explicit.Clusters = DefaultClusters
	if mustKey(t, explicit) != base {
		t.Error("explicit defaults changed the key")
	}
	for _, kb := range []float64{math.NaN(), math.Inf(1)} {
		c := keyBase()
		c.UpdateSizeKB = kb
		if _, err := c.Key(); err == nil {
			t.Errorf("update size %v KB got a key", kb)
		}
	}
}
