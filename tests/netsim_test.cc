// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the network model: packet disassembly, CPU cost charging
// at both endpoints, wire latency, delivery, control messages whose sender
// already paid, slow links and local-transfer shortcuts.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "netsim/network.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

struct Fixture {
  sim::Scheduler sched;
  std::vector<std::unique_ptr<sim::Resource>> cpus;
  NetworkConfig config;
  CpuCosts costs;
  std::unique_ptr<Network> net;

  explicit Fixture(int pes = 4) {
    for (int i = 0; i < pes; ++i) {
      cpus.push_back(std::make_unique<sim::Resource>(sched, 1, "cpu"));
    }
    std::vector<sim::Resource*> cpu_table;
    for (auto& cpu : cpus) cpu_table.push_back(cpu.get());
    net = std::make_unique<Network>(sched, config, costs, 20.0,
                                    std::move(cpu_table));
  }
};

TEST(NetworkTest, PacketsForBytes) {
  Fixture f;
  EXPECT_EQ(f.net->PacketsFor(0), 1);
  EXPECT_EQ(f.net->PacketsFor(1), 1);
  EXPECT_EQ(f.net->PacketsFor(8192), 1);
  EXPECT_EQ(f.net->PacketsFor(8193), 2);
  EXPECT_EQ(f.net->PacketsFor(5 * 8192), 5);
}

TEST(NetworkTest, SinglePacketTransferTiming) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 100);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  // Sender (5000+5000)/20k = 0.5 ms, wire 0.1 ms, receiver
  // (10000+5000)/20k = 0.75 ms.
  EXPECT_NEAR(end, 0.5 + 0.1 + 0.75, 1e-9);
  EXPECT_EQ(f.net->messages_sent(), 1);
  EXPECT_EQ(f.net->packets_sent(), 1);
}

TEST(NetworkTest, MultiPacketMessageChargesPerPacket) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 3 * 8192);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  // Sender (5000+3*5000)/20k = 1.0; wire 0.3; receiver (10000+3*5000)/20k
  // = 1.25.
  EXPECT_NEAR(end, 1.0 + 0.3 + 1.25, 1e-9);
  EXPECT_EQ(f.net->packets_sent(), 3);
  EXPECT_EQ(f.net->bytes_sent(), 3 * 8192);
}

TEST(NetworkTest, LocalTransferIsFree) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(2, 2, 1 << 20);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  EXPECT_DOUBLE_EQ(end, 0.0);
  EXPECT_EQ(f.net->messages_sent(), 0);
}

TEST(NetworkTest, DeliveredRunsWhenReceiverServiceEnds) {
  Fixture f;
  SimTime delivered_at = -1;
  uint64_t delivered_event = 0;
  // Occupy the receiver CPU for 10 ms: the message arrives at 0.6 ms and
  // its receive service runs from 10 to 10.75 ms.
  f.sched.Spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.cpus[1]->Use(10.0);
  }(f));
  f.sched.Spawn(f.net->Transfer(0, 1, 100, [&f, &delivered_at,
                                            &delivered_event] {
    delivered_at = f.sched.Now();
    delivered_event = f.sched.events_processed();
  }));
  f.sched.Run();
  EXPECT_NEAR(delivered_at, 10.0 + 0.75, 1e-9);
  // Delivery is part of the end-of-service event, not an event of its own.
  EXPECT_EQ(delivered_event, f.sched.events_processed());
  EXPECT_EQ(f.net->messages_sent(), 1);
}

TEST(NetworkTest, LocalTransferDeliversAtOnce) {
  Fixture f;
  bool delivered_before_resume = false;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, bool* delivered_first,
                   SimTime* out) -> sim::Task<> {
    co_await fx.sched.Delay(3.0);
    bool delivered = false;
    uint64_t events = fx.sched.events_processed();
    co_await fx.net->Transfer(2, 2, 1 << 20,
                              [&delivered] { delivered = true; });
    *delivered_first = delivered && fx.sched.events_processed() == events;
    *out = fx.sched.Now();
  }(f, &delivered_before_resume, &end));
  f.sched.Run();
  EXPECT_TRUE(delivered_before_resume);
  EXPECT_DOUBLE_EQ(end, 3.0);
  EXPECT_EQ(f.net->messages_sent(), 0);
}

TEST(NetworkTest, SendAndReceiveTimesCountMessagesAndPackets) {
  Fixture f;
  // Per message 5000 (send) or 10000 (receive) instructions, per packet a
  // 5000-instruction copy, at 20 MIPS.
  EXPECT_NEAR(f.net->SendMs(1), 0.5, 1e-12);
  EXPECT_NEAR(f.net->ReceiveMs(1), 0.75, 1e-12);
  EXPECT_NEAR(f.net->SendMs(3), 1.0, 1e-12);
  EXPECT_NEAR(f.net->ReceiveMs(3), 1.25, 1e-12);
}

TEST(NetworkTest, DeliverChargesOnlyTheWireAndTheReceiver) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Deliver(0, 1);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  // Wire 0.1 ms, receiver 0.75 ms; the sender already paid its send.
  EXPECT_NEAR(end, 0.1 + 0.75, 1e-9);
  EXPECT_EQ(f.cpus[0]->completed(), 0u);
  EXPECT_EQ(f.cpus[1]->completed(), 1u);
  EXPECT_EQ(f.net->messages_sent(), 1);
  EXPECT_EQ(f.net->packets_sent(), 1);
}

TEST(NetworkTest, SlowLinkStretchesADeliveredControlMessage) {
  Fixture f;
  f.net->SetLinkDelayMultiplier(0, 1, 4.0);
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Deliver(1, 0);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  EXPECT_NEAR(end, 4.0 * 0.1 + 0.75, 1e-9);
}

TEST(NetworkTest, SenderCpuContentionDelaysTransfer) {
  Fixture f;
  SimTime end = -1;
  // Occupy the sender CPU for 10 ms; the transfer must queue behind it.
  f.sched.Spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.cpus[0]->Use(10.0);
  }(f));
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 100);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  EXPECT_NEAR(end, 10.0 + 1.35, 1e-9);
}

TEST(NetworkTest, ControlMessageIsOnePacket) {
  Fixture f;
  f.sched.Spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.net->ControlMessage(0, 3);
  }(f));
  f.sched.Run();
  EXPECT_EQ(f.net->packets_sent(), 1);
}

TEST(NetworkTest, StatsReset) {
  Fixture f;
  f.sched.Spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 8192 * 2);
  }(f));
  f.sched.Run();
  EXPECT_GT(f.net->messages_sent(), 0);
  f.net->ResetStats();
  EXPECT_EQ(f.net->messages_sent(), 0);
  EXPECT_EQ(f.net->packets_sent(), 0);
  EXPECT_EQ(f.net->bytes_sent(), 0);
}

}  // namespace
}  // namespace pdblb
