package fabnet

import (
	"testing"
	"time"

	"fabricsim/internal/costmodel"
)

func TestApplyDefaults(t *testing.T) {
	cfg := Config{}
	cfg.applyDefaults()
	if cfg.Orderer != Solo {
		t.Errorf("Orderer = %s", cfg.Orderer)
	}
	if cfg.NumOrderers != 1 {
		t.Errorf("NumOrderers = %d", cfg.NumOrderers)
	}
	if cfg.BatchSize != 100 || cfg.BatchTimeout != time.Second {
		t.Errorf("batching defaults = %d/%s (paper uses 100/1s)", cfg.BatchSize, cfg.BatchTimeout)
	}
	if cfg.NumEndorsingPeers != 1 || cfg.NumClients != 1 {
		t.Errorf("peers/clients = %d/%d", cfg.NumEndorsingPeers, cfg.NumClients)
	}
	if cfg.Policy == nil {
		t.Error("no default policy")
	}
	if cfg.Model.TimeScale != 1 {
		t.Errorf("model not defaulted: %f", cfg.Model.TimeScale)
	}
}

func TestSoloForcesOneOSN(t *testing.T) {
	cfg := Config{Orderer: Solo, NumOrderers: 7}
	cfg.applyDefaults()
	if cfg.NumOrderers != 1 {
		t.Errorf("solo with %d OSNs", cfg.NumOrderers)
	}
}

func TestClientsFollowPeers(t *testing.T) {
	cfg := Config{NumEndorsingPeers: 7}
	cfg.applyDefaults()
	if cfg.NumClients != 7 {
		t.Errorf("clients = %d, want one per peer (Fig. 1 load split)", cfg.NumClients)
	}
}

func TestBuildRejectsUnknownOrderer(t *testing.T) {
	_, err := Build(Config{Orderer: OrdererType("pbft")})
	if err == nil {
		t.Error("unknown orderer type accepted")
	}
}

func TestBuildTopology(t *testing.T) {
	n, err := Build(Config{
		Orderer:           Kafka,
		NumOrderers:       2,
		NumEndorsingPeers: 3,
		EndorsersPerOrg:   2,
		NumClients:        4,
		Model:             costmodel.Default(0.05),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if len(n.Orderers) != 2 || len(n.Peers) != 6 || len(n.Gateways) != 4 {
		t.Errorf("topology = %d osn / %d peers / %d clients",
			len(n.Orderers), len(n.Peers), len(n.Gateways))
	}
	// One CA per org: 3 peer orgs + orderer + client orgs; replicas
	// share their org's CA.
	if len(n.CAs) != 5 {
		t.Errorf("CAs = %d, want 5", len(n.CAs))
	}
	if n.kafkaCluster == nil {
		t.Error("kafka substrate missing")
	}
	if n.MSP.Orgs() != 5 {
		t.Errorf("MSP orgs = %d", n.MSP.Orgs())
	}
}

func TestDoubleStartRejected(t *testing.T) {
	n := buildAndStart(t, Config{
		NumEndorsingPeers: 1,
		Model:             costmodel.Default(0.05),
	})
	if err := n.Start(nil); err == nil { //nolint:staticcheck // nil ctx fine for error path
		t.Error("second Start accepted")
	}
}
