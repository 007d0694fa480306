"""Shared fixtures: devices, miniature networks, and helpers.

Tests prefer miniature purpose-built graphs over the full paper networks so
the suite stays fast; the integration tests exercise the real six.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.device import Device
from repro.hardware.specs import (
    JETSON_AGX_XAVIER,
    RASPBERRY_PI_4,
    RTX_2080TI_HOST,
)
from repro.nn import models
from repro.nn.graph import NetworkGraph
from repro.nn.layers import (
    Add,
    Concat,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Softmax,
)


@pytest.fixture
def fresh_graphs():
    """A fresh process-wide graph registry (``repro.nn.models.shared``)
    for the test, so that nothing an earlier test derived on a shared
    graph (run tables, cost memos, buffer roles) is warm."""
    models.shared.cache_clear()
    yield
    models.shared.cache_clear()


@pytest.fixture
def jetson() -> Device:
    """Fresh integrated-device instance."""
    return Device(JETSON_AGX_XAVIER)


@pytest.fixture
def rpi() -> Device:
    """Fresh CPU-only edge device."""
    return Device(RASPBERRY_PI_4)


@pytest.fixture
def dgpu_host() -> Device:
    """Fresh discrete-GPU host."""
    return Device(RTX_2080TI_HOST)


def make_chain_net(name: str = "chain-net") -> NetworkGraph:
    """A small conv→fc chain exercising every common layer kind."""
    net = NetworkGraph(name, (3, 16, 16))
    net.add(Conv2D("conv1", out_channels=8, kernel_size=3, padding=1))
    net.add(ReLU("relu1"))
    net.add(MaxPool2D("pool1", kernel_size=2))
    net.add(Flatten("flatten"))
    net.add(Dropout("drop1"))
    net.add(Dense("fc1", 32))
    net.add(ReLU("relu2"))
    net.add(Dense("fc2", 10))
    net.add(Softmax("softmax"))
    return net


def make_branch_net(name: str = "branch-net") -> NetworkGraph:
    """A fire-module-style fork/join graph (concat join)."""
    net = NetworkGraph(name, (4, 8, 8))
    fork = net.add(Conv2D("squeeze", out_channels=4, kernel_size=1))
    net.add(Conv2D("left", out_channels=8, kernel_size=1), inputs=[fork])
    left = net.add(ReLU("left_relu"))
    net.add(Conv2D("right", out_channels=8, kernel_size=3, padding=1),
            inputs=[fork])
    right = net.add(ReLU("right_relu"))
    net.add(Concat("concat"), inputs=[left, right])
    net.add(Flatten("flatten"))
    net.add(Dense("fc", 10))
    net.add(Softmax("softmax"))
    return net


def make_residual_net(name: str = "residual-net") -> NetworkGraph:
    """A ResNet-style identity-shortcut graph (add join)."""
    net = NetworkGraph(name, (4, 8, 8))
    fork = net.add(Conv2D("stem", out_channels=4, kernel_size=3, padding=1))
    net.add(Conv2D("main1", out_channels=4, kernel_size=3, padding=1),
            inputs=[fork])
    net.add(ReLU("main_relu"))
    main = net.add(Conv2D("main2", out_channels=4, kernel_size=3, padding=1))
    net.add(Add("add"), inputs=[main, fork])
    net.add(ReLU("out_relu"))
    net.add(Flatten("flatten"))
    net.add(Dense("fc", 10))
    net.add(Softmax("softmax"))
    return net


@pytest.fixture
def chain_net() -> NetworkGraph:
    return make_chain_net()


@pytest.fixture
def branch_net() -> NetworkGraph:
    return make_branch_net()


@pytest.fixture
def residual_net() -> NetworkGraph:
    return make_residual_net()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
