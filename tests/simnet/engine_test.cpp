#include "simnet/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace cmpi::simnet {
namespace {

TEST(SimEngine, DelayAdvancesSimulatedTime) {
  SimEngine engine;
  double end = 0;
  engine.spawn([&](SimProcess& self) {
    EXPECT_DOUBLE_EQ(self.now(), 0.0);
    self.delay(100);
    EXPECT_DOUBLE_EQ(self.now(), 100.0);
    self.delay(50);
    end = self.now();
  });
  EXPECT_DOUBLE_EQ(engine.run(), 150.0);
  EXPECT_DOUBLE_EQ(end, 150.0);
}

TEST(SimEngine, ProcessesInterleaveByEventTime) {
  SimEngine engine;
  std::vector<int> order;
  engine.spawn([&](SimProcess& self) {
    self.delay(10);
    order.push_back(1);
    self.delay(20);  // resumes at 30
    order.push_back(3);
  });
  engine.spawn([&](SimProcess& self) {
    self.delay(20);
    order.push_back(2);
    self.delay(20);  // resumes at 40
    order.push_back(4);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimEngine, SendRecvDeliversWithLinkLatency) {
  SimEngine engine;
  Link* link = engine.make_link(1000, 1.0);  // 1 us latency, 1 B/ns
  double recv_time = 0;
  std::size_t bytes = 0;
  engine.spawn([&](SimProcess& self) {
    self.delay(500);
    self.send(1, 7, 2000, link);
    // Sender continues immediately (async send).
    EXPECT_DOUBLE_EQ(self.now(), 500.0);
  });
  engine.spawn([&](SimProcess& self) {
    bytes = self.recv(0, 7);
    recv_time = self.now();
  });
  engine.run();
  EXPECT_EQ(bytes, 2000u);
  // 500 (send) + 2000/1.0 (wire) + 1000 (latency).
  EXPECT_DOUBLE_EQ(recv_time, 3500.0);
}

TEST(SimEngine, NullLinkDeliversInstantly) {
  SimEngine engine;
  double recv_time = -1;
  engine.spawn([&](SimProcess& self) {
    self.delay(42);
    self.send(1, 0, 10, nullptr);
  });
  engine.spawn([&](SimProcess& self) {
    (void)self.recv(0, 0);
    recv_time = self.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(recv_time, 42.0);
}

TEST(SimEngine, RecvBeforeSendBlocks) {
  SimEngine engine;
  double recv_time = 0;
  engine.spawn([&](SimProcess& self) {
    (void)self.recv(1, 3);  // posted at t=0, message comes later
    recv_time = self.now();
  });
  engine.spawn([&](SimProcess& self) {
    self.delay(700);
    self.send(0, 3, 0, nullptr);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(recv_time, 700.0);
}

TEST(SimEngine, MessagesQueueOnTheLink) {
  SimEngine engine;
  Link* link = engine.make_link(0, 1.0);
  std::vector<double> arrivals;
  engine.spawn([&](SimProcess& self) {
    self.send(1, 0, 1000, link);
    self.send(1, 0, 1000, link);  // queues behind the first
  });
  engine.spawn([&](SimProcess& self) {
    (void)self.recv(0, 0);
    arrivals.push_back(self.now());
    (void)self.recv(0, 0);
    arrivals.push_back(self.now());
  });
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 1000.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 2000.0);
}

TEST(SimEngine, TagsSeparateStreams) {
  SimEngine engine;
  std::vector<int> got;
  engine.spawn([&](SimProcess& self) {
    self.send(1, /*tag=*/10, 1, nullptr);
    self.send(1, /*tag=*/20, 2, nullptr);
  });
  engine.spawn([&](SimProcess& self) {
    got.push_back(static_cast<int>(self.recv(0, 20)));  // out of order
    got.push_back(static_cast<int>(self.recv(0, 10)));
  });
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{2, 1}));
}

TEST(SimEngine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    SimEngine engine;
    Link* link = engine.make_link(500, 2.0);
    for (int r = 0; r < 4; ++r) {
      engine.spawn([&, r](SimProcess& self) {
        for (int i = 0; i < 10; ++i) {
          const int peer = (r + 1) % 4;
          self.send(peer, i, 256, link);
          (void)self.recv((r + 3) % 4, i);
          self.delay(100 + 13 * r);
        }
      });
    }
    return engine.run();
  };
  const double a = run_once();
  const double b = run_once();
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0);
}

TEST(SimEngine, ManyProcesses) {
  SimEngine engine;
  constexpr int kProcs = 64;
  std::vector<double> ends(kProcs, 0);
  for (int r = 0; r < kProcs; ++r) {
    engine.spawn([&, r](SimProcess& self) {
      // Ring: pass a token around.
      if (r == 0) {
        self.send(1, 0, 8, nullptr);
        (void)self.recv(kProcs - 1, 0);
      } else {
        (void)self.recv(r - 1, 0);
        self.delay(10);
        self.send((r + 1) % kProcs, 0, 8, nullptr);
      }
      ends[static_cast<std::size_t>(r)] = self.now();
    });
  }
  engine.run();
  // Token visits 63 ranks, each adding 10 ns.
  EXPECT_DOUBLE_EQ(ends[0], 630.0);
}

TEST(SimEngine, ThrowingProcessIsRethrownByRun) {
  SimEngine engine;
  bool receiver_resumed = false;
  engine.spawn([](SimProcess& self) {
    self.delay(10);
    throw std::runtime_error("process 0 failed");
  });
  engine.spawn([&](SimProcess& self) {
    (void)self.recv(0, 0);  // never sent: parked when process 0 throws
    receiver_resumed = true;
  });
  engine.spawn([](SimProcess& self) { self.delay(5); });
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_FALSE(receiver_resumed);
}

}  // namespace
}  // namespace cmpi::simnet
